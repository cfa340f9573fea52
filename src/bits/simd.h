#ifndef TDC_BITS_SIMD_H
#define TDC_BITS_SIMD_H

#include <cstddef>
#include <cstdint>

namespace tdc::bits::simd {

/// Bulk kernels over packed 64-bit bit-plane arrays — the word-at-a-time
/// bodies of TritVector's care_count / compatible_with / covered_by /
/// merge_in / from_string / to_string. Every kernel is an exact bitwise
/// computation, so the SIMD and scalar variants are bit-identical by
/// construction (pinned by the SimdKernels property tests); vectorization
/// changes speed, never results.
///
/// Dispatch: when the tree is built with -DTDC_SIMD=ON (the default on
/// x86-64) an AVX2 translation unit is compiled alongside the scalar one
/// and selected once at startup iff the running CPU reports AVX2 — a
/// baseline-ISA binary therefore never executes a VEX instruction. With the
/// option off, or on non-x86 targets, only the scalar kernels exist.

/// Name of the kernel set in use: "scalar" or "avx2". Stable for the
/// process lifetime; surfaced by the benches so BENCH_*.json records which
/// path produced each number.
const char* active_kernel();

/// Total set bits across `words[0, n)`.
std::size_t popcount_words(const std::uint64_t* words, std::size_t n);

/// True iff some position is specified in both planes with different
/// values: any ((va ^ vb) & ca & cb) != 0. The negation of the cube
/// compatibility predicate.
bool planes_conflict(const std::uint64_t* care_a, const std::uint64_t* value_a,
                     const std::uint64_t* care_b, const std::uint64_t* value_b,
                     std::size_t n);

/// True iff some care bit of plane A is missing or different in plane B:
/// any ((ca & ~cb) | ((va ^ vb) & ca)) != 0. The negation of covered_by.
bool planes_uncovered(const std::uint64_t* care_a, const std::uint64_t* value_a,
                      const std::uint64_t* care_b, const std::uint64_t* value_b,
                      std::size_t n);

/// Merges plane B into plane A in place: A's X positions adopt B's value
/// and care bits (value_a |= value_b & ~care_a; care_a |= care_b).
void planes_merge(std::uint64_t* care_a, std::uint64_t* value_a,
                  const std::uint64_t* care_b, const std::uint64_t* value_b,
                  std::size_t n);

/// Text <-> plane kernels behind TritVector::from_string / to_string and
/// every .tests reader and writer. Both touch exactly the bytes [0, n) of
/// the text: a partial last group goes through a padded local copy, never
/// a wide load or store past the end, so `s` may be untrusted wire bytes
/// ending at an unmapped page.

/// Parses `n` characters of '0' '1' 'X' 'x' '-' into the (n + 63) / 64
/// words of `care` and `value`, 64 trits per word (trit i at bit i % 64 of
/// word i / 64). Every word is overwritten in normal form: value is 0
/// under X and bits past n are 0. Returns n, or the index of the first
/// byte that is none of the five (the planes are then unspecified).
std::size_t parse_trit_chars(const char* s, std::size_t n, std::uint64_t* care,
                             std::uint64_t* value);

/// Writes trits [0, n) of the planes as '0' / '1' / 'X' to out[0, n);
/// a value bit under X is ignored.
void format_trit_chars(const std::uint64_t* care, const std::uint64_t* value,
                       std::size_t n, char* out);

namespace detail {

/// The scalar reference kernels, always compiled; exposed so the property
/// tests can compare whatever active_kernel() dispatches to against them.
std::size_t popcount_words_scalar(const std::uint64_t* words, std::size_t n);
bool planes_conflict_scalar(const std::uint64_t* care_a,
                            const std::uint64_t* value_a,
                            const std::uint64_t* care_b,
                            const std::uint64_t* value_b, std::size_t n);
bool planes_uncovered_scalar(const std::uint64_t* care_a,
                             const std::uint64_t* value_a,
                             const std::uint64_t* care_b,
                             const std::uint64_t* value_b, std::size_t n);
void planes_merge_scalar(std::uint64_t* care_a, std::uint64_t* value_a,
                         const std::uint64_t* care_b,
                         const std::uint64_t* value_b, std::size_t n);
std::size_t parse_trit_chars_scalar(const char* s, std::size_t n,
                                    std::uint64_t* care, std::uint64_t* value);
void format_trit_chars_scalar(const std::uint64_t* care,
                              const std::uint64_t* value, std::size_t n,
                              char* out);

}  // namespace detail

}  // namespace tdc::bits::simd

#endif  // TDC_BITS_SIMD_H
