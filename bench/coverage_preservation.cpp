// End-to-end soundness experiment implied by the paper's flow: the
// decompressor binds every X bit on chip, so the *delivered* vectors differ
// from any fill the ATPG used. This bench verifies on real circuits that
// (a) the decompressed stream is care-bit compatible with the cube set and
// (b) its stuck-at fault coverage matches the 0-filled reference within a
// small incidental-detection delta.
#include <cstdio>

#include "atpg/atpg.h"
#include "exp/flow.h"
#include "exp/table.h"
#include "fault/fault.h"
#include "lzw/decoder.h"
#include "lzw/encoder.h"

int main() {
  using namespace tdc;
  std::printf("Coverage preservation through compress -> decompress\n\n");

  exp::Table table({"Test", "0-fill cov", "LZW-fill cov", "delta", "care bits ok"});
  for (const char* name : {"itc_b04f", "itc_b13f", "s5378f", "s9234f"}) {
    const auto& profile = gen::find_profile(name);
    const exp::PreparedCircuit pc = exp::prepare(profile);
    const netlist::Netlist nl = gen::build_circuit(profile);
    const auto faults = fault::collapsed_fault_list(nl);

    // Reference: cubes 0-filled (what the dropping pass simulated).
    std::vector<bits::TritVector> zero_filled;
    for (const auto& c : pc.tests.cubes) {
      zero_filled.push_back(c.filled(bits::Trit::Zero));
    }
    const double cov_zero = atpg::fault_coverage(nl, faults, zero_filled);

    // Delivered: compress, decompress, split back into patterns.
    const lzw::LzwConfig config = exp::paper_lzw_config(profile);
    const bits::TritVector stream = pc.tests.serialize();
    const auto encoded = lzw::Encoder(config).encode(stream);
    bits::BitReader reader(encoded.stream);
    const auto decoded =
        lzw::Decoder(config).decode_stream(reader, encoded.code_count, encoded.original_bits);
    const bool compatible = stream.covered_by(decoded.bits);
    const auto patterns = pc.tests.deserialize(decoded.bits);
    const double cov_lzw = atpg::fault_coverage(nl, faults, patterns);

    table.add_row({name, exp::pct(cov_zero), exp::pct(cov_lzw),
                   exp::pct(cov_lzw - cov_zero), compatible ? "yes" : "NO"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Every cube's target fault is detected under any fill (PODEM's care\n"
              "bits sensitize the path), so deltas reflect only incidental detections.\n");
  return 0;
}
