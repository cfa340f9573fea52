#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bits/rng.h"
#include "exp/flow.h"
#include "exp/table.h"
#include "reference_testset_io.h"
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

// ---------------------------------------------------------------- TestsReader

/// What one read gave: the stream and header fields, or the error.
struct ReadOutcome {
  bool ok = false;
  std::string circuit;
  std::uint32_t width = 0;
  std::uint64_t patterns = 0;
  TritVector stream;
  ErrorKind kind = ErrorKind::IoError;
  std::string message;
};

template <class Read>
ReadOutcome read_outcome(const Read& read) {
  ReadOutcome out;
  try {
    scan::TestStream s = read();
    out.ok = true;
    out.circuit = std::move(s.circuit);
    out.width = s.width;
    out.patterns = s.patterns;
    out.stream = std::move(s.stream);
  } catch (const TdcErrorBase& e) {
    out.kind = e.error().kind;
    out.message = e.error().message;
  }
  return out;
}

/// The reference's outcome: getline + LineParser, then serialize().
ReadOutcome reference_outcome(const std::string& text) {
  return read_outcome([&text] {
    const scan::TestSet ts = reference::read_tests(std::string_view(text));
    return scan::TestStream{ts.circuit, ts.width, ts.cubes.size(), ts.serialize()};
  });
}

/// Feeds `text` to one TestsReader in blocks whose sizes `next_block`
/// picks.
template <class NextBlock>
ReadOutcome fed_outcome(const std::string& text, NextBlock next_block) {
  return read_outcome([&] {
    scan::TestsReader reader;
    for (std::size_t at = 0; at < text.size();) {
      const std::size_t n = std::min(next_block(), text.size() - at);
      reader.feed(std::string_view(text).substr(at, n));
      at += n;
    }
    return reader.finish();
  });
}

/// `text` with newlines and other control or high bytes escaped, for the
/// failure trace.
std::string printable(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20 || static_cast<unsigned char>(c) >= 0x7f) {
      char hex[8];
      std::snprintf(hex, sizeof hex, "\\x%02x", static_cast<unsigned char>(c));
      out += hex;
    } else {
      out += c;
    }
  }
  return out;
}

/// Reads `text` whole, through an istream, byte by byte and in random
/// block splits, and expects each read to match the reference. Returns
/// whether the reference accepted the text.
bool expect_reader_matches_reference(const std::string& text, bits::Rng& rng) {
  SCOPED_TRACE(printable(text));
  const ReadOutcome want = reference_outcome(text);
  const std::pair<const char*, ReadOutcome> reads[] = {
      {"whole", read_outcome([&] { return scan::read_test_stream(std::string_view(text)); })},
      {"istream", read_outcome([&] {
         std::istringstream in(text);
         return scan::read_test_stream(in);
       })},
      {"bytes", fed_outcome(text, [] { return std::size_t{1}; })},
      {"blocks", fed_outcome(text, [&rng] { return 1 + rng.below(97); })},
  };
  for (const auto& [how, got] : reads) {
    SCOPED_TRACE(how);
    EXPECT_EQ(got.ok, want.ok) << (got.ok ? want.message : got.message);
    if (got.ok && want.ok) {
      EXPECT_EQ(got.circuit, want.circuit);
      EXPECT_EQ(got.width, want.width);
      EXPECT_EQ(got.patterns, want.patterns);
      EXPECT_EQ(got.stream, want.stream);
    } else if (!got.ok && !want.ok) {
      EXPECT_EQ(got.kind, want.kind);
      EXPECT_EQ(got.message, want.message);
    }
  }
  // The TestSet form cuts the same cubes the reference built.
  if (want.ok) {
    EXPECT_EQ(scan::read_tests(std::string_view(text)).cubes,
              reference::read_tests(std::string_view(text)).cubes);
  }
  return want.ok;
}

/// A seeded .tests text as lines (no '\n'): header lines with comments,
/// blank lines, leading blanks and a trailing '\r' here and there, then
/// `patterns` cubes of `width` characters over all five trit spellings,
/// comments and blank lines between them. Cube lines are the ones
/// `cube_lines` lists.
std::vector<std::string> seeded_lines(bits::Rng& rng, std::uint32_t width,
                                      std::uint32_t patterns,
                                      std::vector<std::size_t>& cube_lines) {
  std::vector<std::string> lines;
  const auto noise = [&] {
    if (rng.chance(0.2)) lines.push_back("# note " + std::to_string(rng.below(1000)));
    if (rng.chance(0.2)) lines.emplace_back();
  };
  const auto header = [&](const std::string& line) {
    noise();
    lines.push_back((rng.chance(0.2) ? " \t" : "") + line + (rng.chance(0.2) ? "\r" : ""));
  };
  if (rng.bit()) lines.push_back("# opentdc test set");
  header("circuit c" + std::to_string(rng.below(100)));
  header("width " + std::to_string(width));
  header("patterns " + std::to_string(patterns));
  for (std::uint32_t p = 0; p < patterns; ++p) {
    noise();
    std::string cube(width, '0');
    for (char& c : cube) c = "01Xx-"[rng.below(5)];
    cube_lines.push_back(lines.size());
    lines.push_back(std::move(cube));
  }
  noise();
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines, bool final_newline) {
  std::string text;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    text += lines[i];
    if (i + 1 < lines.size() || final_newline) text += '\n';
  }
  return text;
}

TEST(TestsReaderTest, MatchesTheReferenceForAnySplit) {
  bits::Rng rng(0x7E575);
  constexpr char kBadBytes[] = {'2', '?', ' ', '\t', '\r', '\0', 'Y', '\xff', '#'};
  std::size_t accepted = 0, refused = 0;
  const auto check = [&](const std::string& text) {
    (expect_reader_matches_reference(text, rng) ? accepted : refused) += 1;
  };
  for (int round = 0; round < 24; ++round) {
    // Widths on both sides of every 64-trit word boundary a cube can start
    // at, and empty sets.
    const auto width = static_cast<std::uint32_t>(1 + rng.below(round % 3 == 0 ? 200 : 70));
    const auto patterns = static_cast<std::uint32_t>(rng.below(6));
    std::vector<std::size_t> cubes;
    std::vector<std::string> lines = seeded_lines(rng, width, patterns, cubes);
    check(join_lines(lines, true));
    check(join_lines(lines, false));  // no final newline
    const std::string text = join_lines(lines, true);
    check(text.substr(0, rng.below(text.size() + 1)));  // cut anywhere
    if (!cubes.empty()) {
      const std::size_t victim = cubes[rng.below(cubes.size())];
      // A bad byte at every position of one cube.
      for (std::size_t i = 0; i < width; ++i) {
        std::vector<std::string> bad = lines;
        bad[victim][i] = kBadBytes[rng.below(std::size(kBadBytes))];
        check(join_lines(bad, rng.bit()));
      }
      // One trit too many or too few, and a CRLF cube.
      for (const int delta : {1, -1}) {
        std::vector<std::string> wrong = lines;
        if (delta > 0) {
          wrong[victim] += 'X';
        } else {
          wrong[victim].pop_back();
        }
        check(join_lines(wrong, rng.bit()));
      }
      std::vector<std::string> crlf = lines;
      crlf[victim] += '\r';
      check(join_lines(crlf, true));
    }
    // Pattern counts one off either way, and odd header values.
    for (const std::string& count :
         {std::to_string(patterns + 1), std::to_string(patterns == 0 ? 7 : patterns - 1)}) {
      std::vector<std::string> wrong = lines;
      for (std::string& line : wrong) {
        if (line.find("patterns ") != std::string::npos) line = "patterns " + count;
      }
      check(join_lines(wrong, true));
    }
    for (const char* value : {"+5", "abc", "-1", "99999999999", "5x", ""}) {
      std::vector<std::string> odd = lines;
      for (std::string& line : odd) {
        if (line.find("width ") != std::string::npos) line = std::string("width ") + value;
      }
      check(join_lines(odd, true));
    }
    std::vector<std::string> unknown = lines;
    const std::size_t before = rng.below(cubes.empty() ? 1 : cubes.front() + 1);
    unknown.insert(unknown.begin() + static_cast<std::ptrdiff_t>(before), "colour blue");
    check(join_lines(unknown, true));
  }
  // Both outcomes are exercised in bulk.
  EXPECT_GE(accepted, 48u);
  EXPECT_GE(refused, 500u);
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
