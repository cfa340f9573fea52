// Tests for the extension features: multi-chain scan, variable-width LZW
// codes, the compressed-image file format, and the encoder step observer.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "bits/rng.h"
#include "code_lists.h"
#include "hw/decompressor.h"
#include "lzw/stream_io.h"
#include "lzw/verify.h"
#include "scan/chains.h"

namespace tdc {
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

// ---------------------------------------------------------------- MultiScan

TEST(MultiScanTest, BalancedSplit) {
  const scan::MultiScan ms(10, 3);  // chains of 4, 3, 3
  EXPECT_EQ(ms.depth(), 4u);
  EXPECT_EQ(ms.pattern_stream_bits(), 12u);
  EXPECT_EQ(ms.position(0, 0), 0u);
  EXPECT_EQ(ms.position(0, 3), 3u);
  EXPECT_EQ(ms.position(1, 0), 4u);
  EXPECT_EQ(ms.position(1, 3), scan::MultiScan::kNoPosition);
  EXPECT_EQ(ms.position(2, 2), 9u);
}

TEST(MultiScanTest, SingleChainIsIdentity) {
  scan::TestSet ts;
  ts.circuit = "t";
  ts.width = 9;
  ts.cubes.push_back(TritVector::from_string("01XX10X01"));
  const scan::MultiScan ms(9, 1);
  EXPECT_EQ(ms.serialize(ts), ts.serialize());
}

TEST(MultiScanTest, SliceMajorOrder) {
  scan::TestSet ts;
  ts.circuit = "t";
  ts.width = 4;
  ts.cubes.push_back(TritVector::from_string("0110"));
  const scan::MultiScan ms(4, 2);  // chains {0,1} and {2,3}
  // Slices: (pos0,pos2), (pos1,pos3) -> 0,1 then 1,0.
  EXPECT_EQ(ms.serialize(ts).to_string(), "0110");
  const scan::MultiScan ms4(4, 4);
  EXPECT_EQ(ms4.serialize(ts).to_string(), "0110");
}

TEST(MultiScanTest, RoundTripWithPadding) {
  Rng rng(3);
  scan::TestSet ts;
  ts.circuit = "t";
  ts.width = 29;
  for (int p = 0; p < 7; ++p) ts.cubes.push_back(random_cube(29, 0.4, 100 + p));
  for (const std::uint32_t chains : {1u, 2u, 3u, 5u, 8u, 29u}) {
    const scan::MultiScan ms(29, chains);
    const auto stream = ms.serialize(ts);
    ASSERT_EQ(stream.size(), 7u * ms.pattern_stream_bits());
    // Bind the padding/X and split back: care bits must survive.
    const auto full = stream.filled(Trit::Zero);
    const auto patterns = ms.deserialize(full, 7);
    ASSERT_EQ(patterns.size(), 7u);
    for (int p = 0; p < 7; ++p) {
      ASSERT_TRUE(ts.cubes[p].covered_by(patterns[p])) << "chains " << chains;
    }
  }
}

TEST(MultiScanTest, Validation) {
  EXPECT_THROW(scan::MultiScan(0, 2), std::invalid_argument);
  EXPECT_THROW(scan::MultiScan(8, 0), std::invalid_argument);
  scan::TestSet ts;
  ts.width = 5;
  ts.cubes.push_back(TritVector(4));
  EXPECT_THROW(scan::MultiScan(4, 2).serialize(ts), std::invalid_argument);
  EXPECT_THROW(scan::MultiScan(4, 2).deserialize(TritVector(7), 1),
               std::invalid_argument);
}

// ---------------------------------------------------------------- variable width

TEST(VariableWidthTest, ShrinksEarlyStream) {
  const lzw::LzwConfig fixed{.dict_size = 4096, .char_bits = 4, .entry_bits = 32};
  lzw::LzwConfig variable = fixed;
  variable.variable_width = true;

  const auto input = random_cube(6000, 0.9, 17);
  const auto rf = code_lists::encode_traced(lzw::Encoder(fixed), input);
  const auto rv = code_lists::encode_traced(lzw::Encoder(variable), input);
  EXPECT_EQ(rf.codes, rv.codes);  // same parse, different packing
  EXPECT_LT(rv.result.compressed_bits(), rf.result.compressed_bits());
}

TEST(VariableWidthTest, RoundTripsThroughStreamDecoder) {
  for (const double density : {0.0, 0.6, 0.95}) {
    lzw::LzwConfig config{.dict_size = 512, .char_bits = 3, .entry_bits = 30};
    config.variable_width = true;
    const auto input = random_cube(4000, density, 23);
    const auto report = lzw::encode_and_verify(config, input);
    EXPECT_TRUE(report.ok) << report.error;
  }
}

TEST(VariableWidthTest, HardwareModelAgrees) {
  lzw::LzwConfig config{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};
  config.variable_width = true;
  const auto input = random_cube(20000, 0.85, 29);
  const auto encoded = lzw::Encoder(config).encode(input);
  const hw::DecompressorModel model(hw::HwConfig{.lzw = config, .clock_ratio = 10});
  const auto run = model.run(encoded);
  bits::BitReader reader(encoded.stream);
  const auto sw =
      lzw::Decoder(config).decode_stream(reader, encoded.code_count, encoded.original_bits);
  EXPECT_EQ(run.scan_bits, sw.bits);
  // The input side consumed exactly the packed stream.
  EXPECT_TRUE(input.covered_by(run.scan_bits));
}

// ---------------------------------------------------------------- stream IO

TEST(StreamIoTest, RoundTripThroughMemory) {
  const lzw::LzwConfig config{.dict_size = 256, .char_bits = 5, .entry_bits = 40};
  const auto input = random_cube(3000, 0.8, 41);
  const auto encoded = lzw::Encoder(config).encode(input);

  std::stringstream ss;
  lzw::write_image(ss, encoded);
  const auto image = lzw::read_image(ss);
  EXPECT_EQ(image.config.dict_size, config.dict_size);
  EXPECT_EQ(image.config.char_bits, config.char_bits);
  EXPECT_EQ(image.config.entry_bits, config.entry_bits);
  EXPECT_EQ(image.original_bits, encoded.original_bits);
  EXPECT_EQ(image.code_count, encoded.code_count);

  const auto decoded = image.decode();
  EXPECT_TRUE(input.covered_by(decoded.bits));
}

TEST(StreamIoTest, VariableWidthFlagSurvives) {
  lzw::LzwConfig config{.dict_size = 256, .char_bits = 5, .entry_bits = 40};
  config.variable_width = true;
  const auto input = random_cube(2000, 0.7, 43);
  const auto encoded = lzw::Encoder(config).encode(input);
  std::stringstream ss;
  lzw::write_image(ss, encoded);
  const auto image = lzw::read_image(ss);
  EXPECT_TRUE(image.config.variable_width);
  EXPECT_TRUE(input.covered_by(image.decode().bits));
}

TEST(StreamIoTest, RejectsBadMagicAndTruncation) {
  std::stringstream bad("not an image at all");
  EXPECT_THROW(lzw::read_image(bad), std::runtime_error);

  const auto encoded =
      lzw::Encoder(lzw::LzwConfig{.dict_size = 256, .char_bits = 5, .entry_bits = 40})
          .encode(random_cube(500, 0.5, 3));
  std::stringstream ss;
  lzw::write_image(ss, encoded);
  std::string data = ss.str();
  data.resize(data.size() / 2);
  std::stringstream truncated(data);
  EXPECT_THROW(lzw::read_image(truncated), std::runtime_error);
}

TEST(StreamIoTest, FileRoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "tdc_image.tdclzw").string();
  const lzw::LzwConfig config{.dict_size = 128, .char_bits = 4, .entry_bits = 24};
  const auto input = random_cube(1000, 0.6, 47);
  const auto encoded = lzw::Encoder(config).encode(input);
  lzw::write_image_file(path, encoded);
  const auto image = lzw::read_image_file(path);
  EXPECT_TRUE(input.covered_by(image.decode().bits));
  std::filesystem::remove(path);
  EXPECT_THROW(lzw::read_image_file(path), std::runtime_error);
}

// ---------------------------------------------------------------- observer

TEST(ObserverTest, StepsCoverEveryCharacterPlusFlush) {
  const lzw::LzwConfig config{.dict_size = 64, .char_bits = 2, .entry_bits = 16};
  const auto input = random_cube(100, 0.5, 51);
  std::size_t steps = 0;
  std::size_t emissions = 0;
  std::size_t entries = 0;
  const auto encoded = lzw::Encoder(config).encode(
      input, lzw::XAssignMode::Dynamic, 1, [&](const lzw::EncoderStep& s) {
        ++steps;
        if (s.emitted != lzw::kNoCode) ++emissions;
        if (s.new_entry != lzw::kNoCode) ++entries;
      });
  EXPECT_EQ(steps, encoded.input_chars + 1);  // every char + the flush
  EXPECT_EQ(emissions, encoded.code_count);
  EXPECT_EQ(entries + config.literal_count(), encoded.dict_codes_used);
}

}  // namespace
}  // namespace tdc
