#include "bits/tritvector.h"

#include <bit>
#include <cassert>
#include <utility>

#include "bits/simd.h"
#include "core/error.h"

namespace tdc::bits {

TritVector::TritVector(std::size_t n, Trit fill) : size_(n) {
  care_.assign(words_for(n), 0);
  value_.assign(words_for(n), 0);
  if (fill != Trit::X && n > 0) {
    const std::uint64_t care_fill = ~0ULL;
    const std::uint64_t val_fill = fill == Trit::One ? ~0ULL : 0ULL;
    for (std::size_t w = 0; w < care_.size(); ++w) {
      care_[w] = care_fill;
      value_[w] = val_fill;
    }
    // Clear bits past the end so whole-word operations stay exact.
    const std::size_t tail = n % 64;
    if (tail != 0) {
      const std::uint64_t mask = (1ULL << tail) - 1;
      care_.back() &= mask;
      value_.back() &= mask;
    }
  }
}

TritVector TritVector::from_value_plane(std::vector<std::uint64_t> values,
                                        std::size_t n) {
  assert(values.size() >= words_for(n));
  TritVector v;
  v.size_ = n;
  values.resize(words_for(n));
  v.care_.assign(values.size(), ~0ULL);
  if (n % 64 != 0) {
    values.back() &= low_mask(n % 64);
    v.care_.back() = low_mask(n % 64);
  }
  v.value_ = std::move(values);
  return v;
}

TritVector TritVector::from_string(std::string_view s) {
  TritVector v;
  v.size_ = s.size();
  v.care_.resize(words_for(s.size()));
  v.value_.resize(words_for(s.size()));
  if (const std::size_t bad =
          simd::parse_trit_chars(s.data(), s.size(), v.care_.data(), v.value_.data());
      bad != s.size()) {
    Error{ErrorKind::InvalidInput, "TritVector::from_string: bad character '" +
                                       std::string(1, s[bad]) + "'"}
        .raise();
  }
  return v;
}

Trit TritVector::get(std::size_t i) const {
  assert(i < size_);
  const std::size_t w = i / 64;
  const std::uint64_t m = 1ULL << (i % 64);
  if ((care_[w] & m) == 0) return Trit::X;
  return (value_[w] & m) != 0 ? Trit::One : Trit::Zero;
}

void TritVector::set(std::size_t i, Trit t) {
  assert(i < size_);
  const std::size_t w = i / 64;
  const std::uint64_t m = 1ULL << (i % 64);
  if (t == Trit::X) {
    care_[w] &= ~m;
    value_[w] &= ~m;  // keep normal form: value is 0 under X
  } else {
    care_[w] |= m;
    if (t == Trit::One) {
      value_[w] |= m;
    } else {
      value_[w] &= ~m;
    }
  }
}

void TritVector::push_back(Trit t) {
  if (size_ % 64 == 0) {
    care_.push_back(0);
    value_.push_back(0);
  }
  ++size_;
  set(size_ - 1, t);
}

void TritVector::append(const TritVector& other) {
  const std::size_t at = size_;
  const std::size_t n = other.size_;
  care_.resize(words_for(at + n), 0);
  value_.resize(words_for(at + n), 0);
  // Storage past size() is zero (normal form), so both planes OR in whole
  // words; appending *this to itself reads [0, at) and writes from `at` on.
  or_plane_bits(care_.data(), care_.size(), at, other.care_.data(),
                other.care_.size(), 0, n);
  or_plane_bits(value_.data(), value_.size(), at, other.value_.data(),
                other.value_.size(), 0, n);
  size_ = at + n;
}

std::size_t TritVector::care_count() const {
  return simd::popcount_words(care_.data(), care_.size());
}

std::size_t TritVector::ones_count() const {
  return simd::popcount_words(value_.data(), value_.size());
}

bool TritVector::compatible_with(const TritVector& other) const {
  if (size_ != other.size_) return false;
  return !simd::planes_conflict(care_.data(), value_.data(), other.care_.data(),
                                other.value_.data(), care_.size());
}

bool TritVector::covered_by(const TritVector& other) const {
  // Every care bit of this must be a care bit of other with equal value.
  if (size_ != other.size_) return false;
  return !simd::planes_uncovered(care_.data(), value_.data(),
                                 other.care_.data(), other.value_.data(),
                                 care_.size());
}

void TritVector::merge_in(const TritVector& other) {
  assert(compatible_with(other));
  simd::planes_merge(care_.data(), value_.data(), other.care_.data(),
                     other.value_.data(), care_.size());
}

TritVector TritVector::slice(std::size_t pos, std::size_t len) const {
  assert(pos + len <= size_);
  TritVector out(len);
  or_plane_bits(out.care_.data(), out.care_.size(), 0, care_.data(), care_.size(),
                pos, len);
  or_plane_bits(out.value_.data(), out.value_.size(), 0, value_.data(),
                value_.size(), pos, len);
  return out;
}

TritVector TritVector::filled(Trit v) const {
  assert(v != Trit::X);
  TritVector out = *this;
  for (std::size_t w = 0; w < out.care_.size(); ++w) {
    const std::uint64_t xs = ~out.care_[w];
    if (v == Trit::One) out.value_[w] |= xs;
    out.care_[w] = ~0ULL;
  }
  const std::size_t tail = size_ % 64;
  if (tail != 0 && !out.care_.empty()) {
    const std::uint64_t mask = (1ULL << tail) - 1;
    out.care_.back() &= mask;
    out.value_.back() &= mask;
  }
  return out;
}

TritVector TritVector::filled_random(Rng& rng) const {
  TritVector out = *this;
  for (std::size_t i = 0; i < size_; ++i) {
    if (out.get(i) == Trit::X) out.set(i, rng.bit() ? Trit::One : Trit::Zero);
  }
  return out;
}

template <class Sink>
void TritVector::repeat_fill_words(Sink&& sink) const {
  std::uint64_t carry = 0;  // all ones when the previous filled bit is 1
  for (std::size_t w = 0; w < value_.size(); ++w) {
    // Prefix fill by doubling: after the step for shift s, every position
    // with a care bit among the 2s positions ending at it holds that
    // nearest care bit's value (value is 0 at X: normal form).
    std::uint64_t known = care_[w];
    std::uint64_t filled = value_[w];
    for (unsigned s = 1; s < 64; s <<= 1) {
      filled |= (filled << s) & ~known;
      known |= known << s;
    }
    filled |= carry & ~known;  // X before the word's first care bit
    carry = 0 - (filled >> 63);
    if (w + 1 == value_.size() && size_ % 64 != 0) filled &= low_mask(size_ % 64);
    sink(w, filled);
  }
}

TritVector TritVector::filled_repeat_last() const {
  std::vector<std::uint64_t> filled(value_.size());
  repeat_fill_words([&](std::size_t w, std::uint64_t f) { filled[w] = f; });
  return from_value_plane(std::move(filled), size_);
}

std::size_t TritVector::repeat_fill_runs() const {
  if (size_ == 0) return 0;
  std::size_t changes = 0;
  std::uint64_t prev = 0;  // filled bit just before the word
  repeat_fill_words([&](std::size_t w, std::uint64_t f) {
    if (w == 0) prev = f & 1;  // position 0 starts the first run
    std::uint64_t change = f ^ ((f << 1) | prev);
    if (w + 1 == value_.size() && size_ % 64 != 0) change &= low_mask(size_ % 64);
    changes += static_cast<std::size_t>(std::popcount(change));
    prev = f >> 63;
  });
  return 1 + changes;
}

bool TritVector::operator==(const TritVector& other) const {
  return size_ == other.size_ && care_ == other.care_ && value_ == other.value_;
}

std::string TritVector::to_string() const {
  std::string s(size_, '\0');
  write_chars(s.data());
  return s;
}

void TritVector::write_chars(char* out) const {
  simd::format_trit_chars(care_.data(), value_.data(), size_, out);
}

std::uint64_t TritVector::word(std::size_t pos, std::size_t len) const {
  assert(len <= 64);
  if (len == 0) return 0;
  return reverse_low_bits(
      plane_field(value_.data(), value_.size(), size_, pos, static_cast<unsigned>(len)),
      static_cast<unsigned>(len));
}

std::uint64_t TritVector::care_word(std::size_t pos, std::size_t len) const {
  assert(len <= 64);
  if (len == 0) return 0;
  return reverse_low_bits(
      plane_field(care_.data(), care_.size(), size_, pos, static_cast<unsigned>(len)),
      static_cast<unsigned>(len));
}

CharCursor::CharCursor(const TritVector& v, std::uint32_t char_bits)
    : v_(&v), bits_(char_bits),
      char_count_((v.size() + char_bits - 1) / char_bits) {
  assert(char_bits >= 1 && char_bits <= 64);
}

}  // namespace tdc::bits
