// Decode memory follows the stream, not the header: the decode core sizes
// its entries, child index and output from the adds a stream can make, so
// an untrusted header declaring N = 2^20 costs a 10-code stream a few
// hundred bytes, not N-sized state. The .tests reader keeps the same rule:
// its stream is reserved from the bytes it can still read, never from the
// header's width x patterns. This binary replaces the global operator new
// to count the bytes one read allocates; it is its own binary so no other
// suite runs under the counting allocator.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <string_view>

#include "bits/bitstream.h"
#include "bits/rng.h"
#include "bits/tritvector.h"
#include "lzw/decoder.h"
#include "lzw/encoder.h"
#include "scan/testset_io.h"

namespace {
std::size_t g_allocated = 0;
bool g_counting = false;
}  // namespace

void* operator new(std::size_t n) {
  if (g_counting) g_allocated += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tdc::lzw {
namespace {

TEST(DecodeAlloc, HeaderDictSizeDoesNotSizeDecodeState) {
  // Ten 7-bit characters encode to at most ten codes.
  bits::Rng rng(7);
  bits::TritVector input(70);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input.set(i, rng.bit() ? bits::Trit::One : bits::Trit::Zero);
  }
  for (const std::uint32_t entry_bits : {63u, 127u}) {
    for (const bool variable : {false, true}) {
      const LzwConfig config{.dict_size = 1u << 20, .char_bits = 7, .entry_bits = entry_bits,
                             .variable_width = variable};
      SCOPED_TRACE(config.describe() + (variable ? " variable" : " fixed"));
      const EncodeResult encoded = Encoder(config).encode(input);
      ASSERT_LE(encoded.code_count, 10u);
      const Decoder decoder(config);
      bits::BitReader reader(encoded.stream);
      g_allocated = 0;
      g_counting = true;
      const Result<DecodeResult> decoded =
          decoder.try_decode_stream(reader, encoded.code_count, encoded.original_bits);
      g_counting = false;
      ASSERT_TRUE(decoded.ok()) << decoded.error().describe();
      EXPECT_TRUE(input.covered_by(decoded.value().bits));
      // One N-sized array of even one byte per code would be 1 MiB.
      EXPECT_LT(g_allocated, 4096u);
    }
  }
}

}  // namespace
}  // namespace tdc::lzw

namespace tdc::scan {
namespace {

TEST(ReadTestsAlloc, HeaderCountsDoNotSizeTheStream) {
  // Ten cube bytes under headers that declare up to 2^32 - 1 patterns of
  // 2^32 - 1 trits: one refused at the cube's width, one at the count.
  const std::string texts[] = {
      "circuit c\nwidth 4294967295\npatterns 4294967295\n0101XX10X1\n",
      "circuit c\nwidth 10\npatterns 4294967295\n0101XX10X1\n",
  };
  for (const std::string& text : texts) {
    for (const bool streamed : {false, true}) {
      SCOPED_TRACE(text + (streamed ? " (istream)" : " (in place)"));
      std::istringstream in(text);
      bool refused = false;
      g_allocated = 0;
      g_counting = true;
      try {
        if (streamed) {
          (void)read_test_stream(in);
        } else {
          (void)read_test_stream(std::string_view(text));
        }
      } catch (const TdcErrorBase& e) {
        refused = e.error().kind == ErrorKind::InvalidInput;
      }
      g_counting = false;
      EXPECT_TRUE(refused);
      EXPECT_LT(g_allocated, 4096u);
    }
  }
}

}  // namespace
}  // namespace tdc::scan
