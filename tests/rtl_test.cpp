// Cross-validation of the cycle-stepped RTL model against the event-based
// decompressor model, plus VCD writer checks. The event model runs on the
// shared LZW decode core; the RTL keeps its own parent-chain loop, so it is
// the independent reference the core is checked against.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "bits/rng.h"
#include "code_lists.h"
#include "hw/decompressor.h"
#include "hw/decompressor_rtl.h"
#include "hw/vcd.h"
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

// ---------------------------------------------------------------- VCD

TEST(VcdWriterTest, ProducesWellFormedDump) {
  std::ostringstream out;
  VcdWriter vcd(out, "dut", "1ns");
  const auto clk = vcd.add_signal("clk", 1);
  const auto bus = vcd.add_signal("bus", 8);
  vcd.begin();
  vcd.change(clk, 1);
  vcd.advance(1);
  vcd.change(clk, 0);
  vcd.change(bus, 0xA5);
  vcd.advance(2);
  vcd.change(bus, 0xA5);  // unchanged: must not emit

  const std::string text = out.str();
  EXPECT_NE(text.find("$timescale 1ns $end"), std::string::npos);
  EXPECT_NE(text.find("$var wire 1"), std::string::npos);
  EXPECT_NE(text.find("$var wire 8"), std::string::npos);
  EXPECT_NE(text.find("$enddefinitions"), std::string::npos);
  EXPECT_NE(text.find("#0"), std::string::npos);
  EXPECT_NE(text.find("#1"), std::string::npos);
  EXPECT_NE(text.find("b10100101"), std::string::npos);
  EXPECT_EQ(text.find("#2"), std::string::npos);  // no change at t=2
}

TEST(VcdWriterTest, RejectsMisuse) {
  std::ostringstream out;
  VcdWriter vcd(out);
  EXPECT_THROW(vcd.add_signal("w", 0), std::invalid_argument);
  EXPECT_THROW(vcd.advance(1), std::invalid_argument);  // before begin
  const auto s = vcd.add_signal("s", 1);
  vcd.begin();
  EXPECT_THROW(vcd.add_signal("late", 1), std::invalid_argument);
  vcd.advance(5);
  vcd.change(s, 1);
  EXPECT_THROW(vcd.advance(3), std::invalid_argument);  // time backwards
}

// ---------------------------------------------------------------- RTL vs event model

void expect_same_run(const HwRunResult& rtl, const HwRunResult& event) {
  EXPECT_EQ(rtl.internal_cycles, event.internal_cycles);
  EXPECT_EQ(rtl.input_stall_cycles, event.input_stall_cycles);
  EXPECT_EQ(rtl.shift_cycles, event.shift_cycles);
  EXPECT_EQ(rtl.mem_cycles, event.mem_cycles);
  EXPECT_EQ(rtl.uncompressed_tester_cycles, event.uncompressed_tester_cycles);
  EXPECT_EQ(rtl.scan_bits, event.scan_bits);
}

class RtlAgreement : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RtlAgreement, CycleExactAndBitExact) {
  const std::uint32_t k = GetParam();
  const lzw::LzwConfig config{.dict_size = 256, .char_bits = 4, .entry_bits = 32};
  const auto input = random_cube(6000, 0.85, 99 + k);
  const auto encoded = lzw::Encoder(config).encode(input);

  const HwConfig hc{.lzw = config, .clock_ratio = k};
  expect_same_run(DecompressorRtl(hc).run(encoded), DecompressorModel(hc).run(encoded));
}

/// Geometries the paper-default case above never reaches, each chosen for
/// a decode-core path: expansion copies spanning several 64-bit words at
/// unaligned offsets, KwKwK chains, 16-bit characters, growing code widths
/// and dictionaries that freeze mid-stream — served from the frozen word
/// table when an entry fits 64 bits, from output offsets when it does not.
struct CoreCase {
  std::string name;
  lzw::LzwConfig config;
  TritVector input;
  /// When nonzero, the stream claims only this many original bits, so the
  /// output is complete long before the last code (and the freeze).
  std::uint64_t keep_bits = 0;
};

/// The case's encoder result, its original length cut to keep_bits.
lzw::EncodeResult encode(const CoreCase& c) {
  lzw::EncodeResult encoded = lzw::Encoder(c.config).encode(c.input);
  if (c.keep_bits != 0) encoded.original_bits = c.keep_bits;
  return encoded;
}

std::vector<CoreCase> core_cases() {
  std::vector<CoreCase> cases;
  cases.push_back({"entry_bits_127", {.dict_size = 512, .char_bits = 4, .entry_bits = 127},
                   random_cube(8000, 0.9, 11)});
  cases.push_back({"entry_bits_511", {.dict_size = 1024, .char_bits = 7, .entry_bits = 511},
                   random_cube(20000, 0.95, 12)});
  // Long runs of one value make every code name the entry still being
  // built (KwKwK), with expansions growing one character per code.
  TritVector runs(2500, Trit::Zero);
  runs.append(random_cube(1000, 0.7, 13));
  runs.append(TritVector(2500, Trit::One));
  cases.push_back({"char_bits_1_kwkwk_chains",
                   {.dict_size = 512, .char_bits = 1, .entry_bits = 200}, runs});
  cases.push_back({"char_bits_16",
                   {.dict_size = 1u << 17, .char_bits = 16, .entry_bits = 256},
                   random_cube(4000, 0.9, 14)});
  cases.push_back({"variable_width",
                   {.dict_size = 1024, .char_bits = 5, .entry_bits = 100,
                    .variable_width = true},
                   random_cube(12000, 0.85, 15)});
  cases.push_back({"dictionary_freezes", {.dict_size = 160, .char_bits = 7, .entry_bits = 63},
                   random_cube(10000, 0.5, 16)});
  // 8 characters of 8 bits: a longest entry fills its table word exactly.
  cases.push_back({"freezes_entry_is_one_word",
                   {.dict_size = 512, .char_bits = 8, .entry_bits = 64},
                   random_cube(40000, 0.9, 17)});
  cases.push_back({"freezes_variable_width",
                   {.dict_size = 256, .char_bits = 4, .entry_bits = 40,
                    .variable_width = true},
                   random_cube(12000, 0.7, 18)});
  // 13 characters of 5 bits: 65-bit entries keep the offset copies after
  // the freeze.
  cases.push_back({"freezes_entry_bits_65",
                   {.dict_size = 160, .char_bits = 5, .entry_bits = 65},
                   random_cube(32000, 0.97, 19)});
  cases.push_back({"original_bits_reached_before_freeze",
                   {.dict_size = 160, .char_bits = 7, .entry_bits = 63},
                   random_cube(10000, 0.5, 20), 70});
  return cases;
}

TEST_P(RtlAgreement, DecodeCoreConfigsCycleExactAndBitExact) {
  const std::uint32_t k = GetParam();
  for (const CoreCase& c : core_cases()) {
    SCOPED_TRACE(c.name);
    const auto encoded = encode(c);
    // Unequal read, load and write costs make each step's kind and its
    // dictionary write show in the cycle count.
    const HwConfig hc{.lzw = c.config, .clock_ratio = k, .mem_read_cycles = 3,
                      .mem_write_cycles = 9};
    const auto event = DecompressorModel(hc).run(encoded);
    expect_same_run(DecompressorRtl(hc).run(encoded), event);
    EXPECT_TRUE(c.input.slice(0, encoded.original_bits).covered_by(event.scan_bits));
  }
}

INSTANTIATE_TEST_SUITE_P(ClockRatios, RtlAgreement, ::testing::Values(1u, 2u, 4u, 10u));

// Each case really exercises the path it names.
TEST(RtlTest, DecodeCoreCasesReachTheirPaths) {
  for (const CoreCase& c : core_cases()) {
    SCOPED_TRACE(c.name);
    const auto encoded = encode(c);
    bits::BitReader reader(encoded.stream);
    const auto decoded = lzw::Decoder(c.config).decode_stream(reader, encoded.code_count,
                                                              encoded.original_bits);
    EXPECT_EQ(decoded.telemetry.codes_consumed, encoded.code_count);
    if (c.config.entry_bits > 64) {
      EXPECT_GT(encoded.longest_entry_bits, 64u);
    }
    if (c.config.char_bits == 1) {
      EXPECT_GT(decoded.telemetry.kwkwk_codes, 100u);
      EXPECT_GT(decoded.telemetry.expansion_chars.snapshot().max, 64u);
    }
    const std::uint32_t entries = c.config.dict_size - c.config.first_code();
    if (c.name == "dictionary_freezes" || c.name.starts_with("freezes_") ||
        c.keep_bits != 0) {
      // Most codes come after the freeze.
      EXPECT_EQ(encoded.telemetry.dict_full_events, 1u);
      EXPECT_EQ(decoded.dict_codes_used, c.config.dict_size);
      EXPECT_GT(encoded.code_count, 4 * entries);
    }
    if (c.config.entry_bits == 64 && c.config.char_bits == 8) {
      EXPECT_EQ(encoded.longest_entry_bits, 64u);
    }
    if (c.keep_bits != 0) {
      // The first `entries` codes alone already expand past keep_bits.
      const std::vector<std::uint32_t> lengths =
          code_lists::encode_traced(lzw::Encoder(c.config), c.input).lengths;
      std::uint64_t bits_before_freeze = 0;
      for (std::uint32_t i = 0; i < entries; ++i) {
        bits_before_freeze += std::uint64_t{lengths[i]} * c.config.char_bits;
      }
      EXPECT_GT(bits_before_freeze, c.keep_bits);
      EXPECT_EQ(decoded.bits.size(), c.keep_bits);
    }
  }
}

TEST(RtlTest, VariableWidthAgreesToo) {
  lzw::LzwConfig config{.dict_size = 256, .char_bits = 4, .entry_bits = 32};
  config.variable_width = true;
  const auto input = random_cube(4000, 0.8, 7);
  const auto encoded = lzw::Encoder(config).encode(input);
  const HwConfig hc{.lzw = config, .clock_ratio = 4};
  expect_same_run(DecompressorRtl(hc).run(encoded), DecompressorModel(hc).run(encoded));
}

TEST(RtlTest, RejectsPipelinedMode) {
  const HwConfig hc{.lzw = lzw::LzwConfig{}, .clock_ratio = 4, .pipelined = true};
  lzw::EncodeResult dummy;
  dummy.config = hc.lzw;
  EXPECT_THROW(DecompressorRtl(hc).run(dummy), std::invalid_argument);
}

TEST(RtlTest, VcdDumpCoversWholeRun) {
  const lzw::LzwConfig config{.dict_size = 64, .char_bits = 2, .entry_bits = 16};
  const auto input = random_cube(200, 0.7, 3);
  const auto encoded = lzw::Encoder(config).encode(input);
  std::ostringstream out;
  VcdWriter vcd(out, "lzw_decompressor");
  const HwConfig hc{.lzw = config, .clock_ratio = 2};
  const auto run = DecompressorRtl(hc).run(encoded, &vcd);

  const std::string text = out.str();
  EXPECT_NE(text.find("fsm_state"), std::string::npos);
  EXPECT_NE(text.find("scan_out"), std::string::npos);
  // The last cycle's timestamp appears in the dump.
  EXPECT_NE(text.find(std::string("#") + std::to_string(run.internal_cycles - 1)),
            std::string::npos);
}

}  // namespace
}  // namespace tdc::hw
