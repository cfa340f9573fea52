#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string_view>
#include <utility>

#include "exp/flow.h"
#include "exp/table.h"
#include "scan/testset_io.h"

namespace tdc {
namespace {

using bits::TritVector;

// ---------------------------------------------------------------- Table

TEST(TableTest, RendersAlignedColumns) {
  exp::Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  // Header separator present, rows newline-terminated.
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(TableTest, ShortRowsPadded) {
  exp::Table t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_NO_THROW(t.render());
}

TEST(FormatTest, PctAndNum) {
  EXPECT_EQ(exp::pct(12.345), "12.35%");
  EXPECT_EQ(exp::pct(12.345, 1), "12.3%");
  EXPECT_EQ(exp::pct(-3.0, 0), "-3%");
  EXPECT_EQ(exp::num(1234567), "1234567");
}

// ---------------------------------------------------------------- TestSet IO

scan::TestSet sample_set() {
  scan::TestSet ts;
  ts.circuit = "sample";
  ts.width = 6;
  ts.cubes.push_back(TritVector::from_string("01XX10"));
  ts.cubes.push_back(TritVector::from_string("XXXXXX"));
  ts.cubes.push_back(TritVector::from_string("110011"));
  return ts;
}

void expect_same_set(const scan::TestSet& a, const scan::TestSet& b) {
  EXPECT_EQ(a.circuit, b.circuit);
  EXPECT_EQ(a.width, b.width);
  EXPECT_EQ(a.cubes, b.cubes);
}

TEST(TestSetIoTest, RoundTripThroughText) {
  const auto ts = sample_set();
  std::stringstream ss;
  scan::write_tests(ss, ts);
  const std::string text = ss.str();
  const auto back = scan::read_tests(ss);
  EXPECT_EQ(back.circuit, "sample");
  EXPECT_EQ(back.width, 6u);
  ASSERT_EQ(back.cubes.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(back.cubes[i], ts.cubes[i]);

  // One formatter: format_tests is exactly the bytes write_tests streams.
  EXPECT_EQ(scan::format_tests(ts), text);
  // One parser: the in-place overload reads what the stream overload
  // reads, also around comments, blank lines and a missing final newline.
  const std::string variants[] = {
      text,
      "# c\n\ncircuit sample\n# c\nwidth 6\n\npatterns 3\n01XX10\n# c\n"
      "\nxx--xX\n110011\n\n",
      "circuit sample\nwidth 6\npatterns 3\n01XX10\nXXXXXX\n110011",
  };
  for (const std::string& v : variants) {
    std::istringstream in(v);
    const auto streamed = scan::read_tests(in);
    expect_same_set(streamed, ts);
    expect_same_set(scan::read_tests(std::string_view(v)), streamed);
  }
}

/// The typed error each read_tests overload raises for `text`.
std::pair<Error, Error> read_errors(const std::string& text) {
  std::pair<Error, Error> errors;
  try {
    std::istringstream in(text);
    (void)scan::read_tests(in);
    ADD_FAILURE() << "stream overload accepted: " << text;
  } catch (const TdcErrorBase& e) {
    errors.first = e.error();
  }
  try {
    (void)scan::read_tests(std::string_view(text));
    ADD_FAILURE() << "in-place overload accepted: " << text;
  } catch (const TdcErrorBase& e) {
    errors.second = e.error();
  }
  EXPECT_EQ(errors.first.message, errors.second.message);
  return errors;
}

TEST(TestSetIoTest, RejectsWidthMismatch) {
  const auto [streamed, in_place] = read_errors("circuit c\nwidth 4\npatterns 1\n01X\n");
  EXPECT_EQ(streamed.kind, ErrorKind::InvalidInput);
  EXPECT_EQ(in_place.kind, ErrorKind::InvalidInput);
  EXPECT_EQ(streamed.message, "read_tests: line 4: cube width 3, header says 4");
}

TEST(TestSetIoTest, RejectsCountMismatch) {
  const auto [streamed, in_place] = read_errors("circuit c\nwidth 3\npatterns 2\n01X\n");
  EXPECT_EQ(streamed.kind, ErrorKind::InvalidInput);
  EXPECT_EQ(in_place.kind, ErrorKind::InvalidInput);
  EXPECT_EQ(streamed.message, "read_tests: line 3: header declares 2 patterns, found 1");
}

TEST(TestSetIoTest, RejectsUnknownHeaderAndBadCharacters) {
  const auto header = read_errors("# ok\ncircuit c\ncolour blue\n");
  EXPECT_EQ(header.first.kind, ErrorKind::InvalidInput);
  EXPECT_EQ(header.first.message, "read_tests: line 3: unexpected header line: colour blue");
  // A bad character keeps from_string's own message.
  const auto character = read_errors("circuit c\nwidth 3\npatterns 1\n0?1\n");
  EXPECT_EQ(character.first.kind, ErrorKind::InvalidInput);
  EXPECT_EQ(character.first.message, "TritVector::from_string: bad character '?'");
}

TEST(TestSetIoTest, FileRoundTrip) {
  const auto ts = sample_set();
  const std::string path =
      (std::filesystem::temp_directory_path() / "tdc_testset_io.tests").string();
  scan::write_tests_file(path, ts);
  const auto back = scan::read_tests_file(path);
  EXPECT_EQ(back.cubes, ts.cubes);
  std::filesystem::remove(path);
  EXPECT_THROW(scan::read_tests_file(path), std::runtime_error);
}

// ---------------------------------------------------------------- vertical fill

TEST(VerticalFillTest, ZeroFractionIsIdentity) {
  const auto ts = sample_set();
  const auto f = ts.vertically_filled(0.0, 1);
  EXPECT_EQ(f.cubes, ts.cubes);
}

TEST(VerticalFillTest, FullFractionCopiesFromPreviousPattern) {
  scan::TestSet ts;
  ts.circuit = "v";
  ts.width = 4;
  ts.cubes.push_back(TritVector::from_string("1010"));
  ts.cubes.push_back(TritVector::from_string("XXXX"));
  ts.cubes.push_back(TritVector::from_string("X1XX"));
  const auto f = ts.vertically_filled(1.0, 7);
  EXPECT_EQ(f.cubes[1].to_string(), "1010");  // copied row 0
  EXPECT_EQ(f.cubes[2].to_string(), "1110");  // care bit kept, rest copied
}

TEST(VerticalFillTest, FirstPatternXBecomesZero) {
  scan::TestSet ts;
  ts.circuit = "v";
  ts.width = 3;
  ts.cubes.push_back(TritVector::from_string("X1X"));
  const auto f = ts.vertically_filled(1.0, 7);
  EXPECT_EQ(f.cubes[0].to_string(), "010");
}

TEST(VerticalFillTest, PreservesCareBitsAndLowersDensity) {
  scan::TestSet ts;
  ts.circuit = "v";
  ts.width = 64;
  bits::Rng rng(3);
  for (int p = 0; p < 20; ++p) {
    TritVector v(64);
    for (int i = 0; i < 64; ++i) {
      if (rng.chance(0.2)) v.set(i, rng.bit() ? bits::Trit::One : bits::Trit::Zero);
    }
    ts.cubes.push_back(v);
  }
  const auto f = ts.vertically_filled(0.5, 11);
  EXPECT_LT(f.x_density(), ts.x_density());
  for (std::size_t p = 0; p < ts.cubes.size(); ++p) {
    EXPECT_TRUE(ts.cubes[p].covered_by(f.cubes[p].filled(bits::Trit::Zero)) ||
                ts.cubes[p].compatible_with(f.cubes[p]));
  }
}

TEST(VerticalFillTest, DeterministicInSeed) {
  const auto ts = sample_set();
  EXPECT_EQ(ts.vertically_filled(0.5, 9).cubes, ts.vertically_filled(0.5, 9).cubes);
}

// ---------------------------------------------------------------- flow cache

TEST(FlowTest, CacheDirHonorsEnvironment) {
  ::setenv("TDC_CACHE_DIR", "/tmp/tdc_flow_test_cache", 1);
  EXPECT_EQ(exp::cache_dir(), "/tmp/tdc_flow_test_cache");
  ::unsetenv("TDC_CACHE_DIR");
  EXPECT_EQ(exp::cache_dir(), "tdc_cache");
}

TEST(FlowTest, PrepareCachesAndReloads) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "tdc_flow_prepare").string();
  std::filesystem::remove_all(dir);
  ::setenv("TDC_CACHE_DIR", dir.c_str(), 1);

  const auto& profile = gen::find_profile("itc_b09f");
  const auto first = exp::prepare(profile);
  EXPECT_GT(first.tests.pattern_count(), 0u);
  EXPECT_GT(first.fault_coverage, 50.0);
  EXPECT_TRUE(std::filesystem::exists(dir + "/itc_b09f.tests"));

  const auto second = exp::prepare("itc_b09f");
  EXPECT_EQ(second.tests.cubes, first.tests.cubes);
  // The coverage side-file stores limited precision.
  EXPECT_NEAR(second.fault_coverage, first.fault_coverage, 1e-3);

  ::unsetenv("TDC_CACHE_DIR");
  std::filesystem::remove_all(dir);
}

TEST(FlowTest, PaperConfigUsesProfileDictSize) {
  const auto& profile = gen::find_profile("s13207f");
  const auto config = exp::paper_lzw_config(profile);
  EXPECT_EQ(config.dict_size, profile.dict_size);
  EXPECT_EQ(config.char_bits, 7u);
  EXPECT_EQ(config.entry_bits, 63u);
}

}  // namespace
}  // namespace tdc
