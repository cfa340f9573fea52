#include "lzw/dictionary.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "core/contracts.h"

namespace tdc::lzw {

Dictionary::Dictionary(const LzwConfig& config) : config_(config) {
  config_.validate();
  // Per-code arrays reserved once for the full dictionary, so add() never
  // reallocates them and every field of code c sits at index c. The slab
  // arenas are reserved for their worst case: a parent with k children has
  // used slabs of 4, 8, ..., max(4, bit_ceil(k)) slots, at most 4k in all,
  // so the N - 2^C_C entries need at most four slots each. Nothing is
  // zero-filled beyond the literals.
  meta_.reserve(config_.dict_size);
  slab_.reserve(config_.dict_size);
  const std::size_t slots = 4 * std::size_t{config_.dict_size - config_.literal_count()};
  chars_.reserve(slots);
  codes_.reserve(slots);
  // Literal codes: one root per possible uncompressed character.
  for (std::uint32_t c = 0; c < config_.literal_count(); ++c) {
    meta_.push_back(Meta{.parent = kNoCode, .root_ch = c, .length = 1, .ch = c});
    slab_.push_back(Slab{});
  }
  next_code_ = config_.literal_count();
  longest_bits_ = config_.char_bits;
}

std::vector<std::uint32_t> Dictionary::expand(std::uint32_t code) const {
  TDC_REQUIRE(defined(code), "expand: undefined code");
  std::vector<std::uint32_t> out(length(code));
  std::uint32_t c = code;
  for (std::size_t i = out.size(); i-- > 0;) {
    out[i] = meta_[c].ch;
    c = meta_[c].parent;
  }
  return out;
}

std::uint32_t Dictionary::add(std::uint32_t parent, std::uint32_t ch) {
  assert(defined(parent));
  assert(ch < config_.literal_count());
  assert(child(parent, ch) == kNoCode);
  if (full() || !extendable(parent)) return kNoCode;
  const std::uint32_t code = next_code_++;
  const Meta pm = meta_[parent];
  const std::uint32_t new_length = pm.length + 1;
  meta_.push_back(Meta{.parent = parent, .root_ch = pm.root_ch,
                       .length = new_length, .ch = ch});
  slab_.push_back(Slab{});
  // Append to the parent's slab so children() and the match scans keep
  // insertion order (the First tie-break's contract). A slab is full when
  // it is empty or its count reaches its capacity, max(4, bit_ceil(count));
  // it then moves to the arenas' end with capacity max(4, 2 * count).
  Slab& s = slab_[parent];
  if (s.count == 0 || (s.count >= 4 && std::has_single_bit(s.count))) {
    const auto offset = static_cast<std::uint32_t>(chars_.size());
    const std::size_t capacity = s.count == 0 ? 4 : 2 * std::size_t{s.count};
    chars_.resize(chars_.size() + capacity);
    codes_.resize(codes_.size() + capacity);
    std::copy_n(chars_.begin() + s.offset, s.count, chars_.begin() + offset);
    std::copy_n(codes_.begin() + s.offset, s.count, codes_.begin() + offset);
    s.offset = offset;
  }
  chars_[s.offset + s.count] = static_cast<std::uint16_t>(ch);
  codes_[s.offset + s.count] = code;
  ++s.count;
  longest_bits_ = std::max<std::uint64_t>(
      longest_bits_,
      static_cast<std::uint64_t>(new_length) * config_.char_bits);
  return code;
}

}  // namespace tdc::lzw
