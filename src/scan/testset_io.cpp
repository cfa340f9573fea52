#include "scan/testset_io.h"

#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/error.h"

namespace tdc::scan {

namespace {

/// Block size of the istream and file readers.
constexpr std::size_t kBlockBytes = 64 << 10;

/// The bytes of `in` up to its next '\n' (all of them if there is none),
/// removed from `in`; `ended` says whether the newline was there, and it is
/// consumed too.
std::string_view take_line_piece(std::string_view& in, bool& ended) {
  const auto* nl = static_cast<const char*>(std::memchr(in.data(), '\n', in.size()));
  ended = nl != nullptr;
  const std::size_t n = ended ? static_cast<std::size_t>(nl - in.data()) : in.size();
  const std::string_view piece = in.substr(0, n);
  in.remove_prefix(ended ? n + 1 : n);
  return piece;
}

TestSet to_test_set(TestStream s) {
  TestSet ts;
  ts.circuit = std::move(s.circuit);
  ts.width = s.width;
  if (s.patterns == 1) {
    ts.cubes.push_back(std::move(s.stream));
    return ts;
  }
  ts.cubes.reserve(s.patterns);
  for (std::uint64_t i = 0; i < s.patterns; ++i) {
    ts.cubes.push_back(s.stream.slice(i * s.width, s.width));
  }
  return ts;
}

}  // namespace

void TestsReader::feed(std::string_view bytes) {
  bool ended = false;
  while (!bytes.empty()) {
    switch (state_) {
      case State::LineStart:
        ++line_no_;
        if (bytes.front() == '\n') {
          bytes.remove_prefix(1);
        } else if (bytes.front() == '#') {
          state_ = State::Comment;
        } else if (!header_done_) {
          line_.clear();
          state_ = State::Header;
        } else {
          cube_start_ = out_.stream.size();
          state_ = State::Cube;
        }
        break;
      case State::Comment:
        take_line_piece(bytes, ended);
        if (ended) state_ = State::LineStart;
        break;
      case State::Header:
        line_ += take_line_piece(bytes, ended);
        if (ended) {
          state_ = State::LineStart;
          header_line(line_);
        }
        break;
      case State::Cube:
        out_.stream.append_chars(take_line_piece(bytes, ended));
        if (ended) {
          state_ = State::LineStart;
          end_cube();
        }
        break;
    }
  }
}

TestStream TestsReader::finish() {
  if (state_ == State::Header) header_line(line_);
  if (state_ == State::Cube) end_cube();
  state_ = State::LineStart;
  if (out_.patterns != expected_) {
    fail(patterns_line_, "header declares " + std::to_string(expected_) +
                             " patterns, found " + std::to_string(out_.patterns));
  }
  return std::move(out_);
}

void TestsReader::header_line(const std::string& text) {
  std::istringstream ss{text};
  std::string key;
  ss >> key;
  if (key == "circuit") {
    ss >> out_.circuit;
  } else if (key == "width") {
    ss >> out_.width;
  } else if (key == "patterns") {
    ss >> expected_;
    header_done_ = true;
    patterns_line_ = line_no_;
    // Sized by the bytes that can still come, never by the header alone.
    if (out_.width != 0) {
      out_.stream.reserve(expected_ <= size_hint_ / out_.width
                              ? static_cast<std::size_t>(expected_) * out_.width
                              : size_hint_);
    }
  } else {
    fail(line_no_, "unexpected header line: " + text);
  }
}

void TestsReader::end_cube() {
  const std::size_t width = out_.stream.size() - cube_start_;
  if (width != out_.width) {
    fail(line_no_, "cube width " + std::to_string(width) + ", header says " +
                       std::to_string(out_.width));
  }
  ++out_.patterns;
}

/// Malformed content is the caller's data, not an I/O failure.
void TestsReader::fail(std::size_t line, const std::string& what) {
  Error{ErrorKind::InvalidInput, "read_tests: line " + std::to_string(line) + ": " + what}
      .raise();
}

TestStream read_test_stream(std::string_view text) {
  TestsReader reader(text.size());
  reader.feed(text);
  return reader.finish();
}

TestStream read_test_stream(std::istream& in) {
  // What the buffer says is left (a string's remaining bytes, a file's
  // remaining size) bounds the stream's reservation.
  const std::streamsize avail = in.rdbuf() != nullptr ? in.rdbuf()->in_avail() : 0;
  TestsReader reader(avail > 0 ? static_cast<std::size_t>(avail) : 0);
  char block[kBlockBytes];
  while (in) {
    in.read(block, sizeof block);
    reader.feed(std::string_view(block, static_cast<std::size_t>(in.gcount())));
  }
  return reader.finish();
}

TestStream read_test_stream_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_tests_file: cannot open " + path);
  return read_test_stream(in);
}

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

TestSet read_tests(std::istream& in) { return to_test_set(read_test_stream(in)); }

TestSet read_tests(std::string_view text) { return to_test_set(read_test_stream(text)); }

void write_tests_file(const std::string& path, const TestSet& tests) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_tests_file: cannot open " + path);
  write_tests(out, tests);
}

TestSet read_tests_file(const std::string& path) {
  return to_test_set(read_test_stream_file(path));
}

}  // namespace tdc::scan
