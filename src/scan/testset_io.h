#ifndef TDC_SCAN_TESTSET_IO_H
#define TDC_SCAN_TESTSET_IO_H

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "bits/tritvector.h"
#include "scan/testset.h"

namespace tdc::scan {

/// Plain-text test-cube format (one '0'/'1'/'X' cube per line):
///
///     # opentdc test set
///     circuit s9234f
///     width 247
///     patterns 153
///     01XX...X
///     ...
///
/// The experiment drivers cache ATPG output in this format so every bench
/// binary sees identical cube sets without re-running test generation.
///
/// One reader and one formatter serve every entry point. Blank lines and
/// '#' comments are skipped. Malformed content (an unknown header line, a
/// cube of the wrong width, a pattern count that disagrees with the header,
/// a byte that is not a trit) raises ErrorKind::InvalidInput, thrown as
/// DecodeError (std::invalid_argument); a file that cannot be opened throws
/// std::runtime_error.

/// A .tests text as the compressor consumes it: the header fields and every
/// cube end to end in one scan stream, the stream TestSet::serialize()
/// gives for the same text.
struct TestStream {
  std::string circuit;
  std::uint32_t width = 0;
  std::uint64_t patterns = 0;  ///< cube lines read: the header's count
  bits::TritVector stream;     ///< patterns x width trits, file order
};

/// The one .tests reader. feed() takes the text in any split (a whole
/// string, fixed-size blocks, single bytes), and each cube line's
/// characters go straight into the stream at its running offset through
/// TritVector::append_chars: no line buffer and no per-cube vector. Only
/// header lines, which are short, are gathered whole before they are
/// parsed.
class TestsReader {
 public:
  /// `size_hint` bounds the bytes still to come (0 if unknown). Once the
  /// header is read, the stream reserves min(width x patterns, size_hint)
  /// trits, so a header alone never sizes an allocation.
  explicit TestsReader(std::size_t size_hint = 0) : size_hint_(size_hint) {}

  /// Parses the next bytes of the text. Raises on the first malformed
  /// line, with the same kind, message and line number for any split.
  void feed(std::string_view bytes);

  /// Ends the text (a last line may lack its newline) and checks the
  /// pattern count against the header.
  TestStream finish();

 private:
  enum class State { LineStart, Comment, Header, Cube };

  void header_line(const std::string& text);
  void end_cube();
  [[noreturn]] static void fail(std::size_t line, const std::string& what);

  std::size_t size_hint_;
  TestStream out_;
  State state_ = State::LineStart;
  bool header_done_ = false;
  std::uint64_t expected_ = 0;
  std::size_t line_no_ = 0;
  std::size_t patterns_line_ = 0;
  std::string line_;            ///< the header line being gathered
  std::size_t cube_start_ = 0;  ///< stream offset of the current cube line
};

/// The stream of `text`, parsed in place.
TestStream read_test_stream(std::string_view text);
/// Reads `in` in fixed 64 KiB blocks, never the whole input at once.
TestStream read_test_stream(std::istream& in);
/// Streams the file through read_test_stream(std::istream&): memory is one
/// block plus the packed stream, not the file's text.
TestStream read_test_stream_file(const std::string& path);

/// The whole text in one exact-size allocation, cubes formatted in place.
std::string format_tests(const TestSet& tests);
/// Writes format_tests(tests).
void write_tests(std::ostream& out, const TestSet& tests);

/// The TestSet forms of the readers above: the cubes are cut from the
/// stream.
TestSet read_tests(std::istream& in);
TestSet read_tests(std::string_view text);

void write_tests_file(const std::string& path, const TestSet& tests);
TestSet read_tests_file(const std::string& path);

}  // namespace tdc::scan

#endif  // TDC_SCAN_TESTSET_IO_H
