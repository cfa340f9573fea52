#ifndef TDC_SCAN_TESTSET_IO_H
#define TDC_SCAN_TESTSET_IO_H

#include <iosfwd>
#include <string>
#include <string_view>

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
/// One parser and one formatter serve every entry point. Blank lines and
/// '#' comments are skipped. Malformed content (an unknown header line, a
/// cube of the wrong width, a pattern count that disagrees with the header,
/// a byte that is not a trit) raises ErrorKind::InvalidInput, thrown as
/// DecodeError (std::invalid_argument); a file that cannot be opened throws
/// std::runtime_error.

/// The whole text in one exact-size allocation, cubes formatted in place.
std::string format_tests(const TestSet& tests);
/// Writes format_tests(tests).
void write_tests(std::ostream& out, const TestSet& tests);

/// Reads line by line with getline.
TestSet read_tests(std::istream& in);
/// Parses `text` in place (no copy of the cube lines).
TestSet read_tests(std::string_view text);

void write_tests_file(const std::string& path, const TestSet& tests);
/// Streams the file through read_tests(std::istream&): memory stays one
/// line, not the whole file.
TestSet read_tests_file(const std::string& path);

}  // namespace tdc::scan

#endif  // TDC_SCAN_TESTSET_IO_H
