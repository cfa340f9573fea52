// The reference .tests reader kept out of the library: the getline line
// parser every .tests reader used before scan::TestsReader, and the
// TestSet::serialize() that turned its cubes into the scan stream. The
// reader test holds TestsReader against it (same stream and header fields,
// or the same error kind, message and line number), and bench/micro_codec
// times the reader's row against the same path.
#ifndef TDC_TESTS_REFERENCE_TESTSET_IO_H
#define TDC_TESTS_REFERENCE_TESTSET_IO_H

#include <cstddef>
#include <istream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "bits/tritvector.h"
#include "core/error.h"
#include "scan/testset.h"

namespace tdc::reference {

/// Fed one line at a time (without its '\n'): owns the header state, the
/// line count for error messages and the cube list, one TritVector per
/// cube line.
class LineParser {
 public:
  void line(std::string_view text) {
    ++line_no_;
    if (text.empty() || text[0] == '#') return;
    if (!header_done_) {
      header(text);
      return;
    }
    bits::TritVector cube = bits::TritVector::from_string(text);
    if (cube.size() != ts_.width) {
      fail(line_no_, "cube width " + std::to_string(cube.size()) + ", header says " +
                         std::to_string(ts_.width));
    }
    ts_.cubes.push_back(std::move(cube));
  }

  scan::TestSet finish() {
    if (ts_.cubes.size() != expected_) {
      fail(patterns_line_, "header declares " + std::to_string(expected_) +
                               " patterns, found " + std::to_string(ts_.cubes.size()));
    }
    return std::move(ts_);
  }

 private:
  void header(std::string_view text) {
    std::istringstream ss{std::string(text)};
    std::string key;
    ss >> key;
    if (key == "circuit") {
      ss >> ts_.circuit;
    } else if (key == "width") {
      ss >> ts_.width;
    } else if (key == "patterns") {
      ss >> expected_;
      header_done_ = true;
      patterns_line_ = line_no_;
    } else {
      fail(line_no_, "unexpected header line: " + std::string(text));
    }
  }

  [[noreturn]] static void fail(std::size_t line, const std::string& what) {
    Error{ErrorKind::InvalidInput,
          "read_tests: line " + std::to_string(line) + ": " + what}
        .raise();
  }

  scan::TestSet ts_;
  std::size_t expected_ = 0;
  bool header_done_ = false;
  std::size_t line_no_ = 0;
  std::size_t patterns_line_ = 0;
};

/// The reference read: getline over `in`, one LineParser call per line.
inline scan::TestSet read_tests(std::istream& in) {
  LineParser parser;
  std::string line;
  while (std::getline(in, line)) parser.line(line);
  return parser.finish();
}

inline scan::TestSet read_tests(std::string_view text) {
  std::istringstream in{std::string(text)};
  return read_tests(in);
}

}  // namespace tdc::reference

#endif  // TDC_TESTS_REFERENCE_TESTSET_IO_H
