// Quickstart: compress a scan test-cube set with don't-care-aware LZW,
// decompress it, and verify the round trip — the five-minute tour of the
// public API.
//
//   build/examples/quickstart
#include <cstdio>

#include "bits/tritvector.h"
#include "lzw/config.h"
#include "lzw/decoder.h"
#include "lzw/encoder.h"
#include "lzw/verify.h"
#include "scan/testset.h"

int main() {
  using namespace tdc;

  // A test set is a list of ternary cubes ('0', '1', 'X' = don't-care),
  // one per scan pattern. Real cube sets come out of the ATPG flow (see
  // soc_test_flow); here we type a tiny one in by hand.
  scan::TestSet tests;
  tests.circuit = "demo";
  tests.width = 24;
  for (const char* cube : {
           "1XXX0XXXXXXX10XXXXXX0XXX",
           "XXXX0XXX1XXX10XXXXXXXXXX",
           "1XXXXXXX1XXXXXXXXX0X0XXX",
           "XXX10XXXXXXX1XXXXX0XXXXX",
           "1XXX0XXX1XXX10XXXX0X0XXX",
       }) {
    tests.cubes.push_back(bits::TritVector::from_string(cube));
  }

  // The single-scan-chain download stream the tester would deliver.
  const bits::TritVector stream = tests.serialize();
  std::printf("test set: %llu patterns x %u bits, %.1f%% don't-cares\n",
              static_cast<unsigned long long>(tests.pattern_count()), tests.width,
              100.0 * tests.x_density());

  // Configure the codec: dictionary size N, character width C_C, dictionary
  // entry width C_MDATA (the embedded-memory word bound).
  const lzw::LzwConfig config{.dict_size = 64, .char_bits = 4, .entry_bits = 32};
  config.validate();
  std::printf("LZW config: %s\n", config.describe().c_str());

  // Compress. X bits are bound on the fly so the stream keeps matching
  // dictionary entries (the paper's dynamic don't-care assignment).
  const lzw::Encoder encoder(config);
  const lzw::EncodeResult encoded = encoder.encode(stream);
  std::printf("compressed: %llu -> %llu bits (ratio %.2f%%), %llu codes\n",
              static_cast<unsigned long long>(encoded.original_bits),
              static_cast<unsigned long long>(encoded.compressed_bits()),
              encoded.ratio_percent(), static_cast<unsigned long long>(encoded.code_count));

  // Decompress the packed stream (the software model of the on-chip
  // engine) and verify that every care bit of the cube set survived.
  const lzw::Decoder decoder(config);
  bits::BitReader reader(encoded.stream);
  const lzw::DecodeResult decoded =
      decoder.decode_stream(reader, encoded.code_count, encoded.original_bits);
  std::printf("decoded stream: %s\n", decoded.bits.to_string().substr(0, 48).c_str());

  const lzw::VerifyReport report = lzw::verify_roundtrip(stream, encoded);
  std::printf("round-trip verification: %s\n",
              report.ok ? "OK" : report.error.c_str());
  return report.ok ? 0 : 1;
}
