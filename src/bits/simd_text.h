#ifndef TDC_BITS_SIMD_TEXT_H
#define TDC_BITS_SIMD_TEXT_H

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace tdc::bits::simd::detail {

/// The word loops of the text kernels (bits/simd.h), shared by the scalar
/// body in simd.cpp and the AVX2 body in simd_avx2.cpp, which differ only
/// in the 64-character step they pass in. Internal to those two files.
///
/// This is the one place that keeps the bounds rule for untrusted text:
/// whole 64-byte groups are read or written in place, and the last partial
/// group goes through a padded local copy, so no access reaches past byte
/// n - 1.
///
/// Each file instantiates these templates with a step function from its
/// own anonymous namespace. A template argument with internal linkage
/// gives the instantiation internal linkage too, so the -mavx2 copy of the
/// loop can never be merged into the scalar path by the linker.

/// `Parse64(s, care, value)` fills one word pair from s[0, 64) and returns
/// 64, or the index of the first byte that is not a trit character.
template <std::size_t (*Parse64)(const char*, std::uint64_t&, std::uint64_t&)>
std::size_t parse_trit_chars_by_word(const char* s, std::size_t n,
                                     std::uint64_t* care, std::uint64_t* value) {
  const std::size_t full = n / 64;
  for (std::size_t w = 0; w < full; ++w) {
    if (const std::size_t bad = Parse64(s + 64 * w, care[w], value[w]); bad != 64) {
      return 64 * w + bad;
    }
  }
  if (const std::size_t tail = n % 64; tail != 0) {
    // Padding with 'X' leaves care and value zero past n.
    char padded[64];
    std::memset(padded, 'X', sizeof padded);
    std::memcpy(padded, s + 64 * full, tail);
    if (const std::size_t bad = Parse64(padded, care[full], value[full]); bad != 64) {
      return 64 * full + bad;
    }
  }
  return n;
}

/// `Format64(care, value, out)` writes out[0, 64) from one word pair.
template <void (*Format64)(std::uint64_t, std::uint64_t, char*)>
void format_trit_chars_by_word(const std::uint64_t* care,
                               const std::uint64_t* value, std::size_t n,
                               char* out) {
  const std::size_t full = n / 64;
  for (std::size_t w = 0; w < full; ++w) Format64(care[w], value[w], out + 64 * w);
  if (const std::size_t tail = n % 64; tail != 0) {
    char padded[64];
    Format64(care[full], value[full], padded);
    std::memcpy(out + 64 * full, padded, tail);
  }
}

}  // namespace tdc::bits::simd::detail

#endif  // TDC_BITS_SIMD_TEXT_H
