// Cross-module integration tests: the full paper pipeline on small
// circuits — synthesize, ATPG, serialize, compress (all codecs),
// decompress (software and cycle-accurate hardware model), fault-grade
// the delivered vectors.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

#include "atpg/atpg.h"
#include "codec/lz77.h"
#include "codec/rle.h"
#include "exp/flow.h"
#include "fault/fault.h"
#include "gen/suite.h"
#include "hw/decompressor.h"
#include "lzw/decoder.h"
#include "lzw/encoder.h"
#include "lzw/verify.h"

namespace tdc {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  // ctest runs every case as its own process, possibly in parallel, so each
  // process gets its own cache directory; removal never throws.
  static void SetUpTestSuite() {
    dir_ = (std::filesystem::temp_directory_path() /
            ("tdc_integration_" + std::to_string(::getpid())))
               .string();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    ::setenv("TDC_CACHE_DIR", dir_.c_str(), 1);
    profile_ = new gen::CircuitProfile(gen::find_profile("itc_b13f"));
    prepared_ = new exp::PreparedCircuit(exp::prepare(*profile_));
  }
  static void TearDownTestSuite() {
    delete prepared_;
    delete profile_;
    ::unsetenv("TDC_CACHE_DIR");
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  static std::string dir_;
  static gen::CircuitProfile* profile_;
  static exp::PreparedCircuit* prepared_;
};

std::string IntegrationTest::dir_;
gen::CircuitProfile* IntegrationTest::profile_ = nullptr;
exp::PreparedCircuit* IntegrationTest::prepared_ = nullptr;

TEST_F(IntegrationTest, AtpgProducesUsableCubeSet) {
  const auto& tests = prepared_->tests;
  EXPECT_GT(tests.pattern_count(), 20u);
  EXPECT_EQ(tests.width, profile_->generator.pis + profile_->generator.ffs);
  EXPECT_GT(tests.x_density(), 0.5);
  EXPECT_GT(prepared_->fault_coverage, 85.0);
}

TEST_F(IntegrationTest, LzwRoundTripOnRealCubes) {
  const bits::TritVector stream = prepared_->tests.serialize();
  const lzw::LzwConfig config = exp::paper_lzw_config(*profile_);
  const auto encoded = lzw::Encoder(config).encode(stream);
  EXPECT_GT(encoded.ratio_percent(), 30.0);
  const auto report = lzw::verify_roundtrip(stream, encoded);
  EXPECT_TRUE(report.ok) << report.error;
}

TEST_F(IntegrationTest, AllBaselinesRoundTripOnRealCubes) {
  const bits::TritVector stream = prepared_->tests.serialize();

  const auto lz = codec::lz77_encode(stream);
  EXPECT_TRUE(stream.covered_by(lz77_decode(lz.stream, stream.size(), lz.config)));

  const auto alt = codec::best_alternating_rle(stream);
  EXPECT_TRUE(stream.covered_by(
      codec::alternating_rle_decode(alt.stream, stream.size(), alt.config)));

  const auto gol = codec::best_golomb_rle(stream);
  EXPECT_TRUE(stream.covered_by(
      codec::golomb_rle_decode(gol.stream, stream.size(), gol.config)));
}

TEST_F(IntegrationTest, HardwareModelMatchesSoftwareDecoder) {
  const bits::TritVector stream = prepared_->tests.serialize();
  const lzw::LzwConfig config = exp::paper_lzw_config(*profile_);
  const auto encoded = lzw::Encoder(config).encode(stream);
  const auto sw = lzw::Decoder(config).decode(encoded.codes, encoded.original_bits);
  for (const std::uint32_t k : {4u, 10u}) {
    const hw::DecompressorModel model(hw::HwConfig{.lzw = config, .clock_ratio = k});
    const auto run = model.run(encoded);
    EXPECT_EQ(run.scan_bits, sw.bits) << "clock ratio " << k;
    EXPECT_LE(run.improvement_percent(k), encoded.ratio_percent() + 1e-9);
  }
}

TEST_F(IntegrationTest, DecompressedVectorsKeepTargetFaultCoverage) {
  const netlist::Netlist nl = gen::build_circuit(*profile_);
  const auto faults = fault::collapsed_fault_list(nl);

  const bits::TritVector stream = prepared_->tests.serialize();
  const lzw::LzwConfig config = exp::paper_lzw_config(*profile_);
  const auto encoded = lzw::Encoder(config).encode(stream);
  const auto decoded = lzw::Decoder(config).decode(encoded.codes, encoded.original_bits);
  ASSERT_TRUE(stream.covered_by(decoded.bits));

  const auto patterns = prepared_->tests.deserialize(decoded.bits);
  const double cov = atpg::fault_coverage(nl, faults, patterns);
  // Each cube's care bits sensitize its target fault under any X binding,
  // so delivered coverage stays close to the ATPG's claim (incidental
  // detections may differ slightly in either direction).
  EXPECT_GT(cov, prepared_->fault_coverage - 5.0);
}

TEST_F(IntegrationTest, DifferentSeedsGiveDifferentButValidSets) {
  gen::CircuitProfile variant = *profile_;
  variant.generator.seed ^= 0xDEADBEEF;
  const netlist::Netlist nl = gen::generate_circuit(variant.generator);
  atpg::AtpgOptions opt;
  opt.compaction_window = variant.compaction_window;
  const auto result = atpg::generate_tests(nl, opt);
  EXPECT_GT(result.stats.fault_coverage(), 85.0);
  EXPECT_NE(result.tests.serialize(), prepared_->tests.serialize());
}

TEST_F(IntegrationTest, CompressionShapeAcrossEntrySizes) {
  // Paper Table 5 shape on live data: wider entries never hurt.
  const bits::TritVector stream = prepared_->tests.serialize();
  double last = -1e9;
  for (const std::uint32_t entry : {14u, 63u, 255u}) {
    const lzw::LzwConfig config{.dict_size = 512, .char_bits = 7, .entry_bits = entry};
    const double r = lzw::Encoder(config).encode(stream).ratio_percent();
    EXPECT_GE(r, last - 0.5);
    last = r;
  }
}

TEST_F(IntegrationTest, DynamicAssignmentBeatsPrefillOnRealCubes) {
  const bits::TritVector stream = prepared_->tests.serialize();
  const lzw::Encoder enc(exp::paper_lzw_config(*profile_));
  const double dynamic = enc.encode(stream, lzw::XAssignMode::Dynamic).ratio_percent();
  for (const auto mode : {lzw::XAssignMode::ZeroFill, lzw::XAssignMode::OneFill,
                          lzw::XAssignMode::RandomFill}) {
    EXPECT_GT(dynamic, enc.encode(stream, mode).ratio_percent());
  }
}

}  // namespace
}  // namespace tdc
