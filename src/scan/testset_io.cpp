#include "scan/testset_io.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/error.h"

namespace tdc::scan {

namespace {

/// The one .tests line parser behind both read_tests overloads: fed one
/// line at a time (without its '\n'), it owns the header state, the line
/// count for error messages and the cube list.
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

  TestSet finish() {
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

  /// Malformed content is the caller's data, not an I/O failure.
  [[noreturn]] static void fail(std::size_t line, const std::string& what) {
    Error{ErrorKind::InvalidInput,
          "read_tests: line " + std::to_string(line) + ": " + what}
        .raise();
  }

  TestSet ts_;
  std::size_t expected_ = 0;
  bool header_done_ = false;
  std::size_t line_no_ = 0;
  std::size_t patterns_line_ = 0;
};

}  // namespace

std::string format_tests(const TestSet& tests) {
  const std::string header = "# opentdc test set\ncircuit " + tests.circuit +
                             "\nwidth " + std::to_string(tests.width) + "\npatterns " +
                             std::to_string(tests.cubes.size()) + "\n";
  std::size_t size = header.size();
  for (const auto& c : tests.cubes) size += c.size() + 1;
  // Prefilled with '\n', so every cube's terminator is already in place.
  std::string text(size, '\n');
  header.copy(text.data(), header.size());
  char* at = text.data() + header.size();
  for (const auto& c : tests.cubes) {
    c.write_chars(at);
    at += c.size() + 1;
  }
  return text;
}

void write_tests(std::ostream& out, const TestSet& tests) {
  const std::string text = format_tests(tests);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

TestSet read_tests(std::istream& in) {
  LineParser parser;
  std::string line;
  while (std::getline(in, line)) parser.line(line);
  return parser.finish();
}

TestSet read_tests(std::string_view text) {
  LineParser parser;
  while (!text.empty()) {
    const std::size_t end = text.find('\n');
    parser.line(text.substr(0, end));
    text.remove_prefix(end == std::string_view::npos ? text.size() : end + 1);
  }
  return parser.finish();
}

void write_tests_file(const std::string& path, const TestSet& tests) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_tests_file: cannot open " + path);
  write_tests(out, tests);
}

TestSet read_tests_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_tests_file: cannot open " + path);
  return read_tests(in);
}

}  // namespace tdc::scan
