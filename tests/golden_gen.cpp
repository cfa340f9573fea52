// Regenerates the golden container corpus in tests/data/ — every tiebreak
// and code-width mode, serialized as both TDCLZW1 and TDCLZW2, plus one
// version-3 image with a record per codec. Run after an intentional format
// change and commit the output:
//
//   build/tests/golden_gen tests/data
#include <cstdio>
#include <fstream>
#include <string>

#include "container_golden.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: golden_gen <output-dir>\n");
    return 2;
  }
  const std::string dir = argv[1];
  for (const tdc::golden::Case& c : tdc::golden::cases()) {
    const tdc::lzw::EncodeResult encoded = tdc::golden::encode(c);
    const std::string v1 = dir + "/" + tdc::golden::file_name(c, 1);
    const std::string v2 = dir + "/" + tdc::golden::file_name(c, 2);
    tdc::lzw::write_image_file(v1, encoded, {.version = 1});
    tdc::lzw::write_image_file(v2, encoded, tdc::golden::v2_options());
    std::printf("%s + %s: %llu codes, %llu payload bits\n", v1.c_str(), v2.c_str(),
                static_cast<unsigned long long>(encoded.code_count),
                static_cast<unsigned long long>(encoded.stream.bit_count()));
  }
  const std::string v3 = dir + "/" + tdc::golden::v3_file_name();
  std::ofstream out(v3, std::ios::binary);
  tdc::golden::write_v3(out);  // throws if the file cannot be written
  std::printf("%s: one record per codec\n", v3.c_str());
  return 0;
}
