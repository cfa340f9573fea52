#include <gtest/gtest.h>

#include "bits/rng.h"
#include "bits/tritvector.h"
#include "hw/decompressor.h"
#include "hw/decompressor_rtl.h"
#include "hw/memory.h"
#include "lzw/decoder.h"
#include "lzw/encoder.h"

namespace tdc::hw {
namespace {

using bits::Rng;
using bits::Trit;
using bits::TritVector;

TritVector random_cube(std::size_t n, double x_density, std::uint64_t seed) {
  Rng rng(seed);
  TritVector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!rng.chance(x_density)) v.set(i, rng.bit() ? Trit::One : Trit::Zero);
  }
  return v;
}

lzw::LzwConfig paper_config() {
  return lzw::LzwConfig{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};
}

// ---------------------------------------------------------------- memory model

TEST(MemoryModelTest, GeometryMatchesPaperExample) {
  // Paper §6: s1327f at N=1024, C_C=7 needs C_MDATA >= 1483 — a "1024 x
  // (len field + 1483)" memory. With the default C_MDATA=63 and 9 chars max,
  // the len field needs 4 bits -> 67-bit words.
  DictionaryMemoryModel m(paper_config());
  EXPECT_EQ(m.words(), 1024u);
  EXPECT_EQ(m.len_field_bits(), 4u);  // counts up to 9
  EXPECT_EQ(m.word_bits(), 67u);
  EXPECT_EQ(m.total_bits(), 1024ull * 67ull);
  EXPECT_EQ(m.geometry(), "1024x67");
  EXPECT_GT(m.mux_overhead_bits(), 0u);
}

TEST(MemoryModelTest, LenFieldGrowsWithEntryWidth) {
  lzw::LzwConfig c = paper_config();
  c.entry_bits = 511;  // 73 chars
  DictionaryMemoryModel m(c);
  EXPECT_EQ(m.len_field_bits(), 7u);
}

// ---------------------------------------------------------------- functional equivalence

// The model and lzw::Decoder share one decode core, so the reference is the
// cycle-stepped RTL, which keeps its own parent-chain loop.
TEST(DecompressorModelTest, ScanOutputMatchesRtlReference) {
  const auto input = random_cube(20000, 0.85, 42);
  const lzw::Encoder enc(paper_config());
  const auto encoded = enc.encode(input);

  const HwConfig hc{.lzw = paper_config(), .clock_ratio = 10};
  const auto run = DecompressorModel(hc).run(encoded);
  const auto rtl = DecompressorRtl(hc).run(encoded);
  EXPECT_EQ(run.scan_bits, rtl.scan_bits);
  EXPECT_EQ(run.internal_cycles, rtl.internal_cycles);
  EXPECT_TRUE(input.covered_by(run.scan_bits));
}

// Decode memory is the output plus one offset per entry, whatever C_MDATA
// says. 2^20 bits is bench/table6's "unbounded" width, and a crafted v1
// header or v3 LZW record can declare the same; storing each entry in a
// ceil(C_MDATA/64)-word slot would need >= 1 GiB for the 8k+ entries here.
TEST(DecompressorModelTest, UnboundedEntryWidthRoundTrips) {
  const lzw::LzwConfig config{.dict_size = 65536, .char_bits = 7, .entry_bits = 1u << 20};
  const auto input = random_cube(300000, 0.5, 43);
  const auto encoded = lzw::Encoder(config).encode(input);

  const auto decoded = lzw::Decoder(config).decode(encoded.codes, encoded.original_bits);
  ASSERT_GE(decoded.telemetry.entries_added, 8192u);
  EXPECT_TRUE(input.covered_by(decoded.bits));

  const HwConfig hc{.lzw = config, .clock_ratio = 1};
  const auto run = DecompressorModel(hc).run(encoded);
  EXPECT_EQ(run.scan_bits, decoded.bits);
  EXPECT_EQ(DecompressorRtl(hc).run(encoded).scan_bits, decoded.bits);
}

TEST(DecompressorModelTest, KwKwKServedFromRegister) {
  // 11111... with 1-bit chars exercises the not-yet-defined-code path.
  const lzw::LzwConfig tiny{.dict_size = 8, .char_bits = 1, .entry_bits = 8};
  const auto input = TritVector(40, Trit::One);
  const auto encoded = lzw::Encoder(tiny).encode(input);
  const DecompressorModel hw(HwConfig{.lzw = tiny, .clock_ratio = 4});
  const auto run = hw.run(encoded);
  EXPECT_EQ(run.scan_bits, input);
}

TEST(DecompressorModelTest, RejectsCorruptStream) {
  const lzw::LzwConfig tiny{.dict_size = 8, .char_bits = 1, .entry_bits = 8};
  lzw::EncodeResult fake;
  fake.config = tiny;
  fake.original_bits = 4;
  fake.stream.write(6, 3);  // code 6 undefined at start
  const DecompressorModel hw(HwConfig{.lzw = tiny, .clock_ratio = 4});
  EXPECT_THROW(hw.run(fake), std::invalid_argument);
}

// ---------------------------------------------------------------- timing model

TEST(DecompressorModelTest, SerialModeMatchesAnalyticFormula) {
  // Serial FSM (the paper's architecture): tester cycles =
  // compressed_bits + (decompressed shifting + per-code overhead)/k,
  // so improvement ~= ratio - 1/k. This identity is what lets the model
  // reproduce the paper's Table 2 (e.g. 80.7% ratio -> ~55.7% at 4x).
  const auto input = random_cube(40000, 0.9, 5);
  const auto encoded = lzw::Encoder(paper_config()).encode(input);
  for (const std::uint32_t k : {4u, 8u, 10u}) {
    const DecompressorModel hw(HwConfig{.lzw = paper_config(), .clock_ratio = k});
    const auto run = hw.run(encoded);
    const double ratio = encoded.ratio_percent() / 100.0;
    const double expected = (ratio - 1.0 / k) * 100.0;
    // Overheads (memory reads, literal loads) cost a few extra cycles/code.
    EXPECT_NEAR(run.improvement_percent(k), expected, 3.0) << "k=" << k;
    EXPECT_LT(run.improvement_percent(k), expected + 1e-9);
  }
}

TEST(DecompressorModelTest, PipelinedModeDominatesSerial) {
  const auto input = random_cube(30000, 0.9, 9);
  const auto encoded = lzw::Encoder(paper_config()).encode(input);
  for (const std::uint32_t k : {2u, 4u, 10u}) {
    HwConfig serial{.lzw = paper_config(), .clock_ratio = k, .pipelined = false};
    HwConfig piped = serial;
    piped.pipelined = true;
    const auto rs = DecompressorModel(serial).run(encoded);
    const auto rp = DecompressorModel(piped).run(encoded);
    EXPECT_GE(rp.improvement_percent(k), rs.improvement_percent(k));
    // Functional output identical in both modes.
    EXPECT_EQ(rs.scan_bits, rp.scan_bits);
  }
}

TEST(DecompressorModelTest, HighClockRatioApproachesCompressionRatio) {
  // Paper Table 2: at 10x the improvement is within a few percent of the
  // compression ratio; in the limit they coincide.
  const auto input = random_cube(50000, 0.9, 7);
  const auto encoded = lzw::Encoder(paper_config()).encode(input);
  const DecompressorModel hw(
      HwConfig{.lzw = paper_config(), .clock_ratio = 1000});
  const auto run = hw.run(encoded);
  EXPECT_NEAR(run.improvement_percent(1000), encoded.ratio_percent(), 1.0);
}

TEST(DecompressorModelTest, ImprovementIncreasesWithClockRatio) {
  const auto input = random_cube(50000, 0.9, 13);
  const auto encoded = lzw::Encoder(paper_config()).encode(input);
  double last = -1e9;
  for (const std::uint32_t k : {2u, 4u, 8u, 10u, 16u}) {
    const DecompressorModel hw(HwConfig{.lzw = paper_config(), .clock_ratio = k});
    const auto run = hw.run(encoded);
    const double imp = run.improvement_percent(k);
    EXPECT_GE(imp, last);
    EXPECT_LT(imp, encoded.ratio_percent() + 1e-9);
    last = imp;
  }
}

TEST(DecompressorModelTest, LowClockRatioIsOutputBound) {
  // At k=1 the decompressor can never beat shifting the raw vectors:
  // it must emit original_bits scan bits at 1 bit/cycle plus overheads.
  const auto input = random_cube(20000, 0.9, 21);
  const auto encoded = lzw::Encoder(paper_config()).encode(input);
  const DecompressorModel hw(HwConfig{.lzw = paper_config(), .clock_ratio = 1});
  const auto run = hw.run(encoded);
  EXPECT_LE(run.improvement_percent(1), 0.0);
}

TEST(DecompressorModelTest, CycleAccounting) {
  const auto input = random_cube(10000, 0.85, 3);
  const auto encoded = lzw::Encoder(paper_config()).encode(input);
  const DecompressorModel hw(HwConfig{.lzw = paper_config(), .clock_ratio = 8});
  const auto run = hw.run(encoded);
  // Shift cycles cover at least every scan bit (padding included).
  EXPECT_GE(run.shift_cycles, encoded.original_bits);
  // Total time is at least the arrival time of the last compressed bit and
  // at least the pure shift time.
  EXPECT_GE(run.internal_cycles, encoded.compressed_bits() * 8ull);
  EXPECT_GE(run.internal_cycles, run.shift_cycles);
  EXPECT_EQ(run.uncompressed_tester_cycles, encoded.original_bits);
}

TEST(DecompressorModelTest, TesterCyclesIsCeilDivision) {
  HwRunResult r;
  r.internal_cycles = 101;
  r.uncompressed_tester_cycles = 100;
  EXPECT_EQ(r.tester_cycles(10), 11u);
  EXPECT_NEAR(r.improvement_percent(10), (1.0 - 11.0 / 100.0) * 100.0, 1e-12);
}

TEST(DecompressorModelTest, WiderEntriesImprovePerformance) {
  // Paper Table 6: larger C_MDATA -> fewer codes, fewer per-code overheads,
  // better download time (until the longest-string knee).
  const auto input = random_cube(40000, 0.92, 77);
  double last = -1e9;
  for (const std::uint32_t entry : {14u, 63u, 255u}) {
    lzw::LzwConfig c = paper_config();
    c.entry_bits = entry;
    const auto encoded = lzw::Encoder(c).encode(input);
    const DecompressorModel hw(HwConfig{.lzw = c, .clock_ratio = 10});
    const double imp = hw.run(encoded).improvement_percent(10);
    EXPECT_GE(imp, last - 0.5);  // monotone up to noise
    last = imp;
  }
}

}  // namespace
}  // namespace tdc::hw
