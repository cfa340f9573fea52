// Differential fuzzing across every compressor in the repository: for a
// zoo of workload shapes (random densities, block-structured cubes,
// vertically correlated sets, adversarial corner patterns), every codec
// must produce a decodable stream whose expansion covers the input's care
// bits, and the LZW hardware model must agree with the software decoder.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include <sstream>

#include "bits/rng.h"
#include "codec/huffman.h"
#include "codec/lz77.h"
#include "codec/rle.h"
#include "hw/decompressor.h"
#include "hw/decompressor_rtl.h"
#include "lzw/stream_io.h"
#include "lzw/verify.h"

namespace tdc {
namespace {

using bits::Rng;
using bits::Trit;
using bits::TritVector;

struct Workload {
  std::string name;
  std::function<TritVector(std::uint64_t seed)> make;
};

TritVector random_density(std::size_t n, double x, std::uint64_t seed) {
  Rng rng(seed);
  TritVector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!rng.chance(x)) v.set(i, rng.bit() ? Trit::One : Trit::Zero);
  }
  return v;
}

std::vector<Workload> workloads() {
  std::vector<Workload> w;
  w.push_back({"all_x", [](std::uint64_t) { return TritVector(3000); }});
  w.push_back({"all_zero", [](std::uint64_t) { return TritVector(3000, Trit::Zero); }});
  w.push_back({"all_one", [](std::uint64_t) { return TritVector(3000, Trit::One); }});
  w.push_back({"alternating", [](std::uint64_t) {
                 TritVector v(2999);
                 for (std::size_t i = 0; i < v.size(); ++i) {
                   v.set(i, i % 2 ? Trit::One : Trit::Zero);
                 }
                 return v;
               }});
  w.push_back({"single_care", [](std::uint64_t seed) {
                 TritVector v(2048);
                 v.set(seed % v.size(), Trit::One);
                 return v;
               }});
  w.push_back({"dense_random", [](std::uint64_t seed) {
                 return random_density(4001, 0.0, seed);
               }});
  w.push_back({"sparse_random", [](std::uint64_t seed) {
                 return random_density(4003, 0.95, seed);
               }});
  w.push_back({"mid_random", [](std::uint64_t seed) {
                 return random_density(3997, 0.5, seed);
               }});
  w.push_back({"block_cubes", [](std::uint64_t seed) {
                 // Cubes with one dense care segment each — the ATPG shape.
                 Rng rng(seed);
                 TritVector v(40 * 96);
                 for (int c = 0; c < 40; ++c) {
                   const std::size_t base = c * 96 + rng.below(64);
                   for (int k = 0; k < 24; ++k) {
                     v.set(base + k, rng.bit() ? Trit::One : Trit::Zero);
                   }
                 }
                 return v;
               }});
  w.push_back({"vertical_repeat", [](std::uint64_t seed) {
                 // The same sparse row pattern repeated with mutations.
                 Rng rng(seed);
                 TritVector row = random_density(97, 0.7, seed * 3 + 1);
                 TritVector v;
                 for (int r = 0; r < 40; ++r) {
                   TritVector m = row;
                   if (rng.chance(0.5)) {
                     m.set(rng.below(m.size()),
                           static_cast<Trit>(rng.below(3)));
                   }
                   v.append(m);
                 }
                 return v;
               }});
  w.push_back({"trailing_x_run", [](std::uint64_t seed) {
                 TritVector v = random_density(1000, 0.3, seed);
                 for (int i = 0; i < 1500; ++i) v.push_back(Trit::X);
                 return v;
               }});
  return w;
}

class FuzzTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FuzzTest, EveryCodecRoundTrips) {
  const auto all = workloads();
  const Workload& wl = all[GetParam() % all.size()];
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const TritVector input = wl.make(seed * 7919 + GetParam());
    SCOPED_TRACE(wl.name + " seed " + std::to_string(seed));

    // --- LZW, fixed and variable width, two tie-breaks.
    for (const bool variable : {false, true}) {
      for (const auto tb : {lzw::Tiebreak::First, lzw::Tiebreak::Lookahead}) {
        lzw::LzwConfig config{.dict_size = 512, .char_bits = 5, .entry_bits = 60};
        config.variable_width = variable;
        const auto report = lzw::encode_and_verify(config, input,
                                                   lzw::XAssignMode::Dynamic, tb);
        ASSERT_TRUE(report.ok) << report.error << " variable=" << variable;
      }
    }

    // --- LZW hardware model agreement with the cycle-stepped RTL, which
    // keeps its own decode loop (the model shares lzw::Decoder's core).
    {
      const lzw::LzwConfig config{.dict_size = 256, .char_bits = 4, .entry_bits = 32};
      const auto encoded = lzw::Encoder(config).encode(input);
      const hw::HwConfig hc{.lzw = config, .clock_ratio = 4};
      const auto model = hw::DecompressorModel(hc).run(encoded);
      const auto rtl = hw::DecompressorRtl(hc).run(encoded);
      ASSERT_EQ(model.scan_bits, rtl.scan_bits);
      ASSERT_EQ(model.internal_cycles, rtl.internal_cycles);
      ASSERT_TRUE(input.covered_by(model.scan_bits));
    }

    // --- LZ77, two resource classes.
    for (const auto cfg : {codec::Lz77Config{9, 5}, codec::Lz77Config{10, 8}}) {
      const auto r = codec::lz77_encode(input, cfg);
      const auto d = codec::lz77_decode(r.stream, input.size(), cfg);
      ASSERT_TRUE(input.covered_by(d));
    }

    // --- Run-length family.
    {
      const auto g = codec::golomb_rle_encode(input, {codec::RunCode::Golomb, 8});
      ASSERT_TRUE(input.covered_by(
          codec::golomb_rle_decode(g.stream, input.size(), g.config)));
      const auto f = codec::golomb_rle_encode(input, {codec::RunCode::Fdr, 0});
      ASSERT_TRUE(input.covered_by(
          codec::golomb_rle_decode(f.stream, input.size(), f.config)));
      const auto a = codec::alternating_rle_encode(input, {codec::RunCode::Golomb, 4});
      ASSERT_TRUE(input.covered_by(
          codec::alternating_rle_decode(a.stream, input.size(), a.config)));
    }

    // --- Selective Huffman.
    {
      const auto h = codec::huffman_encode(input, codec::HuffmanConfig{8, 16});
      ASSERT_TRUE(input.covered_by(codec::huffman_decode(h)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WorkloadZoo, FuzzTest, ::testing::Range<std::size_t>(0, 11));

// Container hardening: serialized images with deterministic random damage
// (both versions, chunked and not) plus pure-noise blobs must flow through
// the strict reader / decoder / hardware model as typed errors — no crash,
// no termination, no UB, regardless of what the bytes claim.
TEST_P(FuzzTest, DamagedContainersAlwaysFailCleanly) {
  const auto all = workloads();
  const Workload& wl = all[GetParam() % all.size()];
  const TritVector input = wl.make(GetParam() * 31 + 5);
  const lzw::LzwConfig config{.dict_size = 256, .char_bits = 4, .entry_bits = 32};
  const auto encoded = lzw::Encoder(config).encode(input);

  Rng rng(0xC0'47'A1 + GetParam());
  for (const lzw::ContainerOptions options :
       {lzw::ContainerOptions{.version = 1},
        lzw::ContainerOptions{.version = 2, .chunk_bytes = 0},
        lzw::ContainerOptions{.version = 2, .chunk_bytes = 128}}) {
    std::ostringstream out(std::ios::binary);
    lzw::write_image(out, encoded, options);
    const std::string good = out.str();
    for (int iter = 0; iter < 120; ++iter) {
      std::string bad = good;
      // 1-16 mutations: byte rewrites anywhere, plus occasional truncation.
      const std::size_t mutations = 1 + rng.below(16);
      for (std::size_t m = 0; m < mutations; ++m) {
        bad[rng.below(bad.size())] = static_cast<char>(rng.next_u64());
      }
      if (rng.chance(0.25)) bad.resize(rng.below(bad.size()));

      std::istringstream in(bad, std::ios::binary);
      tdc::Result<lzw::CompressedImage> image = lzw::try_read_image(in);
      if (!image.ok()) continue;  // typed rejection is the expected outcome
      // A v1 image (no CRC) may still parse; decoding must stay clean too.
      tdc::Result<lzw::DecodeResult> decoded = image.value().try_decode();
      lzw::EncodeResult view;
      view.config = image.value().config;
      view.original_bits = image.value().original_bits;
      view.stream = image.value().stream;
      view.codes.resize(image.value().code_count);
      const hw::HwConfig hc{.lzw = image.value().config, .clock_ratio = 2};
      tdc::Result<hw::HwRunResult> hw_run = hw::DecompressorModel(hc).try_run(view);
      // The RTL keeps its own decode loop: it must accept exactly the
      // streams the shared core accepts, fail at the same code, and
      // otherwise produce the same scan stream and cycle count.
      std::optional<hw::HwRunResult> rtl;
      std::optional<tdc::Error> rtl_error;
      try {
        rtl = hw::DecompressorRtl(hc).run(view);
      } catch (const tdc::TdcErrorBase& e) {
        rtl_error = e.error();
      }
      ASSERT_EQ(rtl.has_value(), hw_run.ok());
      ASSERT_EQ(rtl.has_value(), decoded.ok());
      if (rtl) {
        EXPECT_EQ(hw_run.value().scan_bits, rtl->scan_bits);
        EXPECT_EQ(hw_run.value().internal_cycles, rtl->internal_cycles);
        EXPECT_EQ(decoded.value().bits, rtl->scan_bits);
      } else {
        EXPECT_EQ(hw_run.error().kind, rtl_error->kind);
        EXPECT_EQ(hw_run.error().code_index, rtl_error->code_index);
      }
    }
  }

  // Pure-noise blobs: the reader must reject them without reading OOB.
  for (int iter = 0; iter < 200; ++iter) {
    std::string blob(rng.below(200), '\0');
    for (char& b : blob) b = static_cast<char>(rng.next_u64());
    std::istringstream in(blob, std::ios::binary);
    tdc::Result<lzw::CompressedImage> image = lzw::try_read_image(in);
    if (image.ok()) (void)image.value().try_decode();
  }
}

}  // namespace
}  // namespace tdc
