#include "common.h"

#include <cstdio>
#include <sstream>

#include "exp/flow.h"
#include "gen/suite.h"
#include "scan/testset_io.h"

namespace perfbench {

std::uint64_t SplitMix::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

Inputs make_inputs(std::uint64_t seed) {
  Inputs inputs;
  std::uint64_t digest = kFnvBasis;
  const auto& suite = tdc::gen::table3_suite();
  // The prepare cache is keyed by profile name, so the seed never reaches
  // test generation: it only reorders the cached patterns.
  std::vector<tdc::exp::PreparedCircuit> prepared = tdc::exp::prepare_all(suite);
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const tdc::gen::CircuitProfile& profile = suite[i];
    Circuit c;
    c.name = profile.name;
    c.config = tdc::exp::paper_lzw_config(profile);
    c.tests = std::move(prepared[i].tests);
    SplitMix rng(seed * 0x100000001b3ull + i);
    shuffle(c.tests.cubes, rng);
    std::ostringstream text;
    tdc::scan::write_tests(text, c.tests);
    c.tests_text = std::move(text).str();
    c.stream = c.tests.serialize();
    digest = fnv1a(c.tests_text, digest);
    inputs.circuits.push_back(std::move(c));
  }
  inputs.digest = digest;
  return inputs;
}

}  // namespace perfbench
