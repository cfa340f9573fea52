#ifndef TDC_BITS_WORDOPS_H
#define TDC_BITS_WORDOPS_H

#include <cstddef>
#include <cstdint>

namespace tdc::bits {

/// Word-parallel (SWAR) primitives shared by the trit-plane kernels: the
/// CharCursor, TritVector's bulk accessors and the BitWriter staging buffer
/// all lean on these instead of per-bit loops. Everything here is constexpr
/// (and the single-word primitives branchless), so the property tests can
/// pin the kernels against naive per-bit references at compile time as well
/// as at runtime.

/// Mask with the low `len` bits set. len in [0, 64].
constexpr std::uint64_t low_mask(unsigned len) {
  return len >= 64 ? ~0ULL : (1ULL << len) - 1;
}

/// 0x8000 in each 16-bit lane of `x` that is zero, 0 elsewhere. Exact: the
/// add runs on 15-bit fields, so no carry crosses into the next lane (the
/// borrow-prone `(x - 0x0001...) & ~x & 0x8000...` shortcut reports false
/// zeros in lanes above a zero lane).
constexpr std::uint64_t zero_lanes16(std::uint64_t x) {
  constexpr std::uint64_t kLow15 = 0x7FFF7FFF7FFF7FFFULL;
  return ~(((x & kLow15) + kLow15) | x) & ~kLow15;
}

/// Byte-reverses a 64-bit word.
constexpr std::uint64_t byteswap64(std::uint64_t x) {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_bswap64(x);
#else
  x = ((x & 0x00FF00FF00FF00FFULL) << 8) | ((x >> 8) & 0x00FF00FF00FF00FFULL);
  x = ((x & 0x0000FFFF0000FFFFULL) << 16) | ((x >> 16) & 0x0000FFFF0000FFFFULL);
  return (x << 32) | (x >> 32);
#endif
}

/// Reverses all 64 bits: three SWAR exchange steps plus one byte swap —
/// constant cost, no table, no per-bit loop.
constexpr std::uint64_t reverse_bits64(std::uint64_t x) {
  x = ((x & 0x5555555555555555ULL) << 1) | ((x >> 1) & 0x5555555555555555ULL);
  x = ((x & 0x3333333333333333ULL) << 2) | ((x >> 2) & 0x3333333333333333ULL);
  x = ((x & 0x0F0F0F0F0F0F0F0FULL) << 4) | ((x >> 4) & 0x0F0F0F0F0F0F0F0FULL);
  return byteswap64(x);
}

/// Reverses the low `len` bits of `raw`; bits at or above `len` are
/// discarded (they reverse into the positions the shift drops). len in
/// [1, 64]. This is the LSB-first-plane <-> MSB-first-character pivot for
/// a single field (word()/care_word(), CharCursor::at, the decode core's
/// literals); CharCursor::next reverses whole plane words instead.
constexpr std::uint64_t reverse_low_bits(std::uint64_t raw, unsigned len) {
  return reverse_bits64(raw) >> (64u - len);
}

/// LSB-first field [pos, pos+len) of a packed bit plane of `words` 64-bit
/// words (bit i of the plane is bit i % 64 of word i / 64; bit j of the
/// result is plane bit pos+j). Positions at or past `nbits` read as 0: a
/// trit plane keeps its storage bits past size() zero (normal form), so
/// only whole-word bounds need checks. len in [1, 64].
constexpr std::uint64_t plane_field(const std::uint64_t* plane, std::size_t words,
                                    std::size_t nbits, std::size_t pos, unsigned len) {
  if (pos >= nbits) return 0;
  const std::size_t w = pos / 64;
  const unsigned off = pos % 64;
  std::uint64_t raw = plane[w] >> off;
  if (off != 0 && w + 1 < words) raw |= plane[w + 1] << (64 - off);
  return raw & low_mask(len);
}

/// ORs bits [s, s+n) of plane `src` onto bits [d, d+n) of plane `dst`, one
/// funnel-shifted 64-bit word per step: the bulk copy behind
/// TritVector::append/slice and the LZW decode core's expansion copy.
///
/// Preconditions: src bits [s, s+n) lie within its `src_words` words; dst
/// bits [d, d+n) lie within its `dst_words` words and are zero (the copy
/// ORs, so the caller keeps unwritten storage zeroed). `src` may be `dst`
/// when s + n <= d: every bit read then lies below every bit written.
constexpr void or_plane_bits(std::uint64_t* dst, std::size_t dst_words, std::size_t d,
                             const std::uint64_t* src, std::size_t src_words,
                             std::size_t s, std::size_t n) {
  const std::size_t end = s + n;
  while (s < end) {
    const unsigned len = end - s < 64 ? static_cast<unsigned>(end - s) : 64u;
    const std::uint64_t x = plane_field(src, src_words, end, s, len);
    const std::size_t w = d / 64;
    const unsigned off = d % 64;
    dst[w] |= x << off;
    if (off != 0 && w + 1 < dst_words) dst[w + 1] |= x >> (64 - off);
    s += len;
    d += len;
  }
}

}  // namespace tdc::bits

#endif  // TDC_BITS_WORDOPS_H
