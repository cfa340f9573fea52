#ifndef TDC_BITS_TRITVECTOR_H
#define TDC_BITS_TRITVECTOR_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bits/rng.h"
#include "bits/trit.h"
#include "bits/wordops.h"

namespace tdc::bits {

/// Packed vector of three-valued logic (0/1/X), the universal carrier for
/// scan-test data in this project.
///
/// Storage is two bit-planes of 64-bit words:
///   * `care` — bit i set iff position i is specified (0 or 1),
///   * `value` — the bit value; kept 0 wherever care is 0 (normal form),
/// which makes compatibility checks and care-bit counting word-parallel.
class TritVector {
 public:
  TritVector() = default;

  /// Constructs `n` trits, all initialized to `fill`.
  explicit TritVector(std::size_t n, Trit fill = Trit::X);

  /// Fully specified vector of `n` trits whose values are the LSB-first bit
  /// plane `values` (trit i is bit i % 64 of values[i / 64]); takes the
  /// words, dropping any past the n-th bit. Precondition: values holds at
  /// least n bits.
  static TritVector from_value_plane(std::vector<std::uint64_t> values, std::size_t n);

  /// Parses a textual cube, e.g. "01XX10-1" ('x' and '-' are X aliases),
  /// 64 characters per kernel step. Any other byte raises InvalidInput
  /// (std::invalid_argument) naming the first such byte.
  static TritVector from_string(std::string_view s);

  /// Number of trits.
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Reads the trit at `i`. Precondition: i < size().
  Trit get(std::size_t i) const;

  /// Writes the trit at `i`. Precondition: i < size().
  void set(std::size_t i, Trit t);

  /// Appends one trit at the end.
  void push_back(Trit t);

  /// Appends every trit of `other`.
  void append(const TritVector& other);

  /// Number of specified (0/1) positions.
  std::size_t care_count() const;

  /// Number of X positions.
  std::size_t x_count() const { return size_ - care_count(); }

  /// Fraction of X positions in [0,1]; 0 for an empty vector.
  double x_density() const {
    return size_ == 0 ? 0.0 : static_cast<double>(x_count()) / static_cast<double>(size_);
  }

  /// True iff no position is X.
  bool fully_specified() const { return care_count() == size_; }

  /// True iff the two vectors have equal size and every position is
  /// pairwise compatible (X matches anything). This is the cube-merge /
  /// verification predicate.
  bool compatible_with(const TritVector& other) const;

  /// True iff every care bit of `this` has the same value in `other`
  /// (other may specify more). `other` must be the same size.
  bool covered_by(const TritVector& other) const;

  /// Merges a compatible vector into this one (X positions adopt the other
  /// side's value). Precondition: compatible_with(other).
  void merge_in(const TritVector& other);

  /// Copy of trits [pos, pos+len). Precondition: pos+len <= size().
  TritVector slice(std::size_t pos, std::size_t len) const;

  /// Replaces every X by `v` and returns the fully-specified result.
  TritVector filled(Trit v) const;

  /// Replaces every X by an independent fair coin flip from `rng`.
  TritVector filled_random(Rng& rng) const;

  /// Replaces each X by the value of the nearest preceding care bit
  /// (0 if none yet) — the "repeat fill" favoured by run-length coders.
  TritVector filled_repeat_last() const;

  /// Exact (value + care plane) equality.
  bool operator==(const TritVector& other) const;
  bool operator!=(const TritVector& other) const { return !(*this == other); }

  /// Textual form using '0'/'1'/'X'.
  std::string to_string() const;

  /// Writes the size() characters of to_string() to out[0, size()): lets a
  /// caller format many vectors into one preallocated buffer.
  void write_chars(char* out) const;

  /// Interprets trits [pos, pos+len) as an MSB-first unsigned integer;
  /// X bits read as 0, as do positions at or past size() (implicit X
  /// padding for a trailing partial character). Precondition: len <= 64.

  std::uint64_t word(std::size_t pos, std::size_t len) const;

  /// MSB-first mask of care bits over [pos, pos+len): bit set iff the
  /// corresponding trit is specified. Together with word() this yields the
  /// (value, mask) pair used for wildcard character matching.
  /// Positions at or past size() read as X (mask 0), so a trailing partial
  /// character can be fetched without explicit padding.
  std::uint64_t care_word(std::size_t pos, std::size_t len) const;

 private:
  friend class CharCursor;
  static std::size_t words_for(std::size_t n) { return (n + 63) / 64; }
  std::size_t size_ = 0;
  std::vector<std::uint64_t> care_;
  std::vector<std::uint64_t> value_;
};

/// Streaming character cursor over a TritVector: walks the packed bit-plane
/// words once and yields the MSB-first (value, care) pair of each
/// `char_bits`-wide character directly from the storage words, instead of
/// re-slicing with word()/care_word() (a per-bit loop) for every position.
///
/// Semantics match word()/care_word() exactly: X bits read as value 0 and
/// care 0, and positions at or past size() read as X, so a trailing partial
/// character needs no explicit padding. The cursor never outlives the
/// vector it walks.
class CharCursor {
 public:
  struct Char {
    std::uint64_t value = 0;  ///< MSB-first character bits (X read as 0)
    std::uint64_t care = 0;   ///< MSB-first mask of specified bits
  };

  /// Precondition: 1 <= char_bits <= 64.
  CharCursor(const TritVector& v, std::uint32_t char_bits);

  /// Number of characters covered (the last one possibly X-padded).
  std::uint64_t char_count() const { return char_count_; }

  /// Index of the character next() would yield.
  std::uint64_t index() const { return index_; }

  /// True once every character has been consumed.
  bool done() const { return index_ >= char_count_; }

  /// Random access to any character (used by lookahead probes); does not
  /// move the cursor.
  Char at(std::uint64_t char_index) const {
    // The planes store position i at bit i of a word, while characters
    // are read MSB-first: each field is reversed (SWAR, constant cost).
    const std::size_t pos = static_cast<std::size_t>(char_index) * bits_;
    const TritVector& v = *v_;
    return Char{
        .value = reverse_low_bits(
            plane_field(v.value_.data(), v.value_.size(), v.size_, pos, bits_), bits_),
        .care = reverse_low_bits(
            plane_field(v.care_.data(), v.care_.size(), v.size_, pos, bits_), bits_),
    };
  }

  /// Yields the current character and advances. Precondition: !done().
  Char next() { return at(index_++); }

 private:
  const TritVector* v_;
  std::uint32_t bits_;
  std::uint64_t char_count_;
  std::uint64_t index_ = 0;
};

}  // namespace tdc::bits

#endif  // TDC_BITS_TRITVECTOR_H
