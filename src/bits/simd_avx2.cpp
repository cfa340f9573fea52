// AVX2 bodies of the bit-plane and text kernels (bits/simd.h). This is the
// only translation unit compiled with -mavx2 — it must stay free of code
// that runs before the dispatcher's CPU check, so it defines nothing but
// the kernels themselves. Built only under -DTDC_SIMD=ON on x86-64; the
// scalar kernels in simd.cpp remain the reference the property tests pin
// against.
#if defined(TDC_SIMD_X86)

#include <bit>
#include <cstddef>
#include <cstdint>
#include <immintrin.h>

#include "bits/simd_text.h"

namespace tdc::bits::simd::detail {

namespace {

/// Loads four plane words (the planes are heap vectors, not guaranteed
/// 32-byte aligned).
inline __m256i load4(const std::uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void store4(std::uint64_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

/// One plane word from 64 text bytes (two 32-byte halves): cmpeq per
/// accepted character, movemask per plane. Returns 64, or the index of the
/// first byte that is not a trit character.
inline std::size_t parse64(const char* s, std::uint64_t& care, std::uint64_t& value) {
  const __m256i zero = _mm256_set1_epi8('0');
  const __m256i one = _mm256_set1_epi8('1');
  const __m256i lower_x = _mm256_set1_epi8('x');
  const __m256i dash = _mm256_set1_epi8('-');
  const __m256i case_bit = _mm256_set1_epi8(0x20);  // 'X' | 0x20 == 'x'
  std::uint64_t masks[3] = {0, 0, 0};  // care, value, valid
  for (std::size_t half = 0; half < 2; ++half) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + 32 * half));
    const __m256i is_one = _mm256_cmpeq_epi8(v, one);
    const __m256i specified = _mm256_or_si256(_mm256_cmpeq_epi8(v, zero), is_one);
    const __m256i x = _mm256_or_si256(
        _mm256_cmpeq_epi8(_mm256_or_si256(v, case_bit), lower_x),
        _mm256_cmpeq_epi8(v, dash));
    const __m256i planes[3] = {specified, is_one, _mm256_or_si256(specified, x)};
    for (std::size_t p = 0; p < 3; ++p) {
      masks[p] |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                      _mm256_movemask_epi8(planes[p])))
                  << (32 * half);
    }
  }
  if (masks[2] != ~0ULL) return static_cast<std::size_t>(__builtin_ctzll(~masks[2]));
  care = masks[0];
  value = masks[1];
  return 64;
}

/// 0xFF in byte j of the result iff bit j of `bits` is set: shuffle each
/// source byte across eight lanes, keep one bit per lane, compare.
inline __m256i spread32(std::uint32_t bits) {
  const __m256i pick = _mm256_setr_epi8(0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1,
                                        1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3,
                                        3, 3, 3, 3);
  const __m256i bit_of_byte =
      _mm256_set1_epi64x(static_cast<long long>(0x8040201008040201ULL));
  const __m256i bytes =
      _mm256_shuffle_epi8(_mm256_set1_epi32(static_cast<int>(bits)), pick);
  return _mm256_cmpeq_epi8(_mm256_and_si256(bytes, bit_of_byte), bit_of_byte);
}

/// 64 text bytes from one plane word: blendv between 'X' and '0' + value
/// under the care mask.
inline void format64(std::uint64_t care, std::uint64_t value, char* out) {
  const __m256i xs = _mm256_set1_epi8('X');
  const __m256i zero = _mm256_set1_epi8('0');
  for (std::size_t half = 0; half < 2; ++half) {
    const auto c = static_cast<std::uint32_t>(care >> (32 * half));
    const auto v = static_cast<std::uint32_t>(value >> (32 * half));
    // A set value lane is -1, so '0' - lane is '1'.
    const __m256i digits = _mm256_sub_epi8(zero, spread32(v));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 32 * half),
                        _mm256_blendv_epi8(xs, digits, spread32(c)));
  }
}

}  // namespace

std::size_t popcount_words_avx2(const std::uint64_t* words, std::size_t n) {
  // Nibble-LUT popcount (Mula): per 256-bit lane, split bytes into nibbles,
  // look both up in a 16-entry count table, horizontally sum via sad_epu8.
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
                                       3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2,
                                       2, 3, 2, 3, 3, 4);
  const __m256i nib = _mm256_set1_epi8(0x0F);
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = load4(words + i);
    const __m256i lo = _mm256_shuffle_epi8(lut, _mm256_and_si256(v, nib));
    const __m256i hi = _mm256_shuffle_epi8(
        lut, _mm256_and_si256(_mm256_srli_epi64(v, 4), nib));
    acc = _mm256_add_epi64(
        acc, _mm256_sad_epu8(_mm256_add_epi8(lo, hi), _mm256_setzero_si256()));
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::size_t total = static_cast<std::size_t>(lanes[0] + lanes[1] + lanes[2] +
                                               lanes[3]);
  for (; i < n; ++i) total += static_cast<std::size_t>(std::popcount(words[i]));
  return total;
}

bool planes_conflict_avx2(const std::uint64_t* care_a,
                          const std::uint64_t* value_a,
                          const std::uint64_t* care_b,
                          const std::uint64_t* value_b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i both = _mm256_and_si256(load4(care_a + i), load4(care_b + i));
    const __m256i diff = _mm256_xor_si256(load4(value_a + i), load4(value_b + i));
    if (_mm256_testz_si256(diff, both) == 0) return true;
  }
  for (; i < n; ++i) {
    if (((value_a[i] ^ value_b[i]) & care_a[i] & care_b[i]) != 0) return true;
  }
  return false;
}

bool planes_uncovered_avx2(const std::uint64_t* care_a,
                           const std::uint64_t* value_a,
                           const std::uint64_t* care_b,
                           const std::uint64_t* value_b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i ca = load4(care_a + i);
    const __m256i missing = _mm256_andnot_si256(load4(care_b + i), ca);
    const __m256i diff = _mm256_and_si256(
        _mm256_xor_si256(load4(value_a + i), load4(value_b + i)), ca);
    if (_mm256_testz_si256(_mm256_or_si256(missing, diff),
                           _mm256_set1_epi64x(-1)) == 0) {
      return true;
    }
  }
  for (; i < n; ++i) {
    if (((care_a[i] & ~care_b[i]) | ((value_a[i] ^ value_b[i]) & care_a[i])) !=
        0) {
      return true;
    }
  }
  return false;
}

void planes_merge_avx2(std::uint64_t* care_a, std::uint64_t* value_a,
                       const std::uint64_t* care_b,
                       const std::uint64_t* value_b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i ca = load4(care_a + i);
    const __m256i adopted = _mm256_andnot_si256(ca, load4(value_b + i));
    store4(value_a + i, _mm256_or_si256(load4(value_a + i), adopted));
    store4(care_a + i, _mm256_or_si256(ca, load4(care_b + i)));
  }
  for (; i < n; ++i) {
    value_a[i] |= value_b[i] & ~care_a[i];
    care_a[i] |= care_b[i];
  }
}

std::size_t parse_trit_chars_avx2(const char* s, std::size_t n,
                                  std::uint64_t* care, std::uint64_t* value) {
  return parse_trit_chars_by_word<parse64>(s, n, care, value);
}

void format_trit_chars_avx2(const std::uint64_t* care,
                            const std::uint64_t* value, std::size_t n,
                            char* out) {
  format_trit_chars_by_word<format64>(care, value, n, out);
}

}  // namespace tdc::bits::simd::detail

#endif  // TDC_SIMD_X86
