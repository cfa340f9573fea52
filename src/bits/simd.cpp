#include "bits/simd.h"

#include <bit>
#include <cstring>

#include "bits/simd_text.h"
#include "bits/wordops.h"

namespace tdc::bits::simd {

namespace detail {

std::size_t popcount_words_scalar(const std::uint64_t* words, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += static_cast<std::size_t>(std::popcount(words[i]));
  }
  return total;
}

bool planes_conflict_scalar(const std::uint64_t* care_a,
                            const std::uint64_t* value_a,
                            const std::uint64_t* care_b,
                            const std::uint64_t* value_b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (((value_a[i] ^ value_b[i]) & care_a[i] & care_b[i]) != 0) return true;
  }
  return false;
}

bool planes_uncovered_scalar(const std::uint64_t* care_a,
                             const std::uint64_t* value_a,
                             const std::uint64_t* care_b,
                             const std::uint64_t* value_b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (((care_a[i] & ~care_b[i]) | ((value_a[i] ^ value_b[i]) & care_a[i])) !=
        0) {
      return true;
    }
  }
  return false;
}

void planes_merge_scalar(std::uint64_t* care_a, std::uint64_t* value_a,
                         const std::uint64_t* care_b,
                         const std::uint64_t* value_b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    value_a[i] |= value_b[i] & ~care_a[i];
    care_a[i] |= care_b[i];
  }
}

namespace {

constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
constexpr std::uint64_t kHigh = 0x8080808080808080ULL;

/// Eight text bytes as one word, s[k] in byte k whatever the host order.
std::uint64_t load8(const char* s) {
  std::uint64_t w = 0;
  std::memcpy(&w, s, 8);
  if constexpr (std::endian::native == std::endian::big) w = byteswap64(w);
  return w;
}

void store8(char* out, std::uint64_t w) {
  if constexpr (std::endian::native == std::endian::big) w = byteswap64(w);
  std::memcpy(out, &w, 8);
}

/// 0x80 in each byte of `w` equal to `c`, 0 elsewhere. Exact: the add runs
/// on 7-bit fields, so no carry crosses into the next byte.
constexpr std::uint64_t bytes_equal(std::uint64_t w, char c) {
  const std::uint64_t x = w ^ (kOnes * static_cast<unsigned char>(c));
  return ~(((x & ~kHigh) + ~kHigh) | x) & kHigh;
}

/// Gathers the 0x80 flag of byte k into bit k. Every (byte, multiplier
/// bit) product lands on its own bit position, so the multiply never
/// carries.
constexpr std::uint64_t gather_flags(std::uint64_t m) {
  return ((m >> 7) * 0x0102040810204080ULL) >> 56;
}

/// The inverse spread: bit k of `b` (k < 8) to 0x01 in byte k.
constexpr std::uint64_t spread_bits(std::uint64_t b) {
  constexpr std::uint64_t kBitOfByte = 0x8040201008040201ULL;
  return ((((b & 0xFF) * kOnes & kBitOfByte) + ~kHigh) & kHigh) >> 7;
}

/// One plane word from 64 text bytes. Returns 64, or the index of the
/// first byte that is not a trit character.
std::size_t parse64(const char* s, std::uint64_t& care, std::uint64_t& value) {
  std::uint64_t c = 0;
  std::uint64_t v = 0;
  for (std::size_t k = 0; k < 8; ++k) {
    const std::uint64_t w = load8(s + 8 * k);
    const std::uint64_t one = bytes_equal(w, '1');
    const std::uint64_t specified = bytes_equal(w, '0') | one;
    // 'X' | 0x20 == 'x', and no other byte ORs to 'x'.
    const std::uint64_t x = bytes_equal(w | (kOnes * 0x20), 'x') | bytes_equal(w, '-');
    if (const std::uint64_t bad = ~(specified | x) & kHigh; bad != 0) {
      return 8 * k + static_cast<std::size_t>(std::countr_zero(bad)) / 8;
    }
    c |= gather_flags(specified) << (8 * k);
    v |= gather_flags(one) << (8 * k);
  }
  care = c;
  value = v;
  return 64;
}

/// 64 text bytes from one plane word: care ? '0' + value : 'X' per byte,
/// as 'X' - care * ('X' - '0') + value (no byte borrows).
void format64(std::uint64_t care, std::uint64_t value, char* out) {
  value &= care;
  for (std::size_t k = 0; k < 8; ++k) {
    const std::uint64_t c = spread_bits(care >> (8 * k));
    const std::uint64_t v = spread_bits(value >> (8 * k));
    store8(out + 8 * k, kOnes * 'X' - c * ('X' - '0') + v);
  }
}

}  // namespace

std::size_t parse_trit_chars_scalar(const char* s, std::size_t n,
                                    std::uint64_t* care, std::uint64_t* value) {
  return parse_trit_chars_by_word<parse64>(s, n, care, value);
}

void format_trit_chars_scalar(const std::uint64_t* care,
                              const std::uint64_t* value, std::size_t n,
                              char* out) {
  format_trit_chars_by_word<format64>(care, value, n, out);
}

#if defined(TDC_SIMD_X86)
// Implemented in simd_avx2.cpp, the only TU built with -mavx2; called only
// after the runtime CPU check below reports AVX2 support.
std::size_t popcount_words_avx2(const std::uint64_t* words, std::size_t n);
bool planes_conflict_avx2(const std::uint64_t* care_a,
                          const std::uint64_t* value_a,
                          const std::uint64_t* care_b,
                          const std::uint64_t* value_b, std::size_t n);
bool planes_uncovered_avx2(const std::uint64_t* care_a,
                           const std::uint64_t* value_a,
                           const std::uint64_t* care_b,
                           const std::uint64_t* value_b, std::size_t n);
void planes_merge_avx2(std::uint64_t* care_a, std::uint64_t* value_a,
                       const std::uint64_t* care_b,
                       const std::uint64_t* value_b, std::size_t n);
std::size_t parse_trit_chars_avx2(const char* s, std::size_t n,
                                  std::uint64_t* care, std::uint64_t* value);
void format_trit_chars_avx2(const std::uint64_t* care,
                            const std::uint64_t* value, std::size_t n,
                            char* out);
#endif

namespace {

/// One-time runtime ISA probe. The result is immutable for the process, so
/// every kernel branches on a plain bool the predictor learns immediately.
bool detect_avx2() {
#if defined(TDC_SIMD_X86) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

const bool kUseAvx2 = detect_avx2();

}  // namespace
}  // namespace detail

const char* active_kernel() { return detail::kUseAvx2 ? "avx2" : "scalar"; }

std::size_t popcount_words(const std::uint64_t* words, std::size_t n) {
#if defined(TDC_SIMD_X86)
  if (detail::kUseAvx2 && n >= 8) return detail::popcount_words_avx2(words, n);
#endif
  return detail::popcount_words_scalar(words, n);
}

bool planes_conflict(const std::uint64_t* care_a, const std::uint64_t* value_a,
                     const std::uint64_t* care_b, const std::uint64_t* value_b,
                     std::size_t n) {
#if defined(TDC_SIMD_X86)
  if (detail::kUseAvx2 && n >= 8) {
    return detail::planes_conflict_avx2(care_a, value_a, care_b, value_b, n);
  }
#endif
  return detail::planes_conflict_scalar(care_a, value_a, care_b, value_b, n);
}

bool planes_uncovered(const std::uint64_t* care_a, const std::uint64_t* value_a,
                      const std::uint64_t* care_b, const std::uint64_t* value_b,
                      std::size_t n) {
#if defined(TDC_SIMD_X86)
  if (detail::kUseAvx2 && n >= 8) {
    return detail::planes_uncovered_avx2(care_a, value_a, care_b, value_b, n);
  }
#endif
  return detail::planes_uncovered_scalar(care_a, value_a, care_b, value_b, n);
}

void planes_merge(std::uint64_t* care_a, std::uint64_t* value_a,
                  const std::uint64_t* care_b, const std::uint64_t* value_b,
                  std::size_t n) {
#if defined(TDC_SIMD_X86)
  if (detail::kUseAvx2 && n >= 8) {
    detail::planes_merge_avx2(care_a, value_a, care_b, value_b, n);
    return;
  }
#endif
  detail::planes_merge_scalar(care_a, value_a, care_b, value_b, n);
}

std::size_t parse_trit_chars(const char* s, std::size_t n, std::uint64_t* care,
                             std::uint64_t* value) {
#if defined(TDC_SIMD_X86)
  if (detail::kUseAvx2) return detail::parse_trit_chars_avx2(s, n, care, value);
#endif
  return detail::parse_trit_chars_scalar(s, n, care, value);
}

void format_trit_chars(const std::uint64_t* care, const std::uint64_t* value,
                       std::size_t n, char* out) {
#if defined(TDC_SIMD_X86)
  if (detail::kUseAvx2) {
    detail::format_trit_chars_avx2(care, value, n, out);
    return;
  }
#endif
  detail::format_trit_chars_scalar(care, value, n, out);
}

}  // namespace tdc::bits::simd
