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

template <SlabOrder Order>
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
  // A slab is full when it is empty or its count reaches its capacity,
  // max(4, bit_ceil(count)); it then moves to the arenas' end with capacity
  // max(4, 2 * count).
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
  // The new code is the highest, and it has no children yet: Insertion
  // and ChildCount both place it last. Char shifts the greater characters
  // one lane right.
  std::uint32_t lane = s.count;
  if constexpr (Order == SlabOrder::Char) {
    const auto first = chars_.begin() + s.offset;
    lane = static_cast<std::uint32_t>(
        std::upper_bound(first, first + s.count, ch) - first);
    std::copy_backward(first + lane, first + s.count, first + s.count + 1);
    const auto codes = codes_.begin() + s.offset;
    std::copy_backward(codes + lane, codes + s.count, codes + s.count + 1);
  }
  chars_[s.offset + lane] = static_cast<std::uint16_t>(ch);
  codes_[s.offset + lane] = code;
  ++s.count;
  if constexpr (Order == SlabOrder::ChildCount) {
    if (pm.parent != kNoCode) lift(parent);
  }
  longest_bits_ = std::max<std::uint64_t>(
      longest_bits_,
      static_cast<std::uint64_t>(new_length) * config_.char_bits);
  return code;
}

template std::uint32_t Dictionary::add<SlabOrder::Insertion>(std::uint32_t, std::uint32_t);
template std::uint32_t Dictionary::add<SlabOrder::Char>(std::uint32_t, std::uint32_t);
template std::uint32_t Dictionary::add<SlabOrder::ChildCount>(std::uint32_t, std::uint32_t);

void Dictionary::lift(std::uint32_t code) {
  // The slab was sorted by (child count descending, code ascending) before
  // `code` gained a child, so the siblings it now outranks sit in one run
  // just left of it: those with its old count, and those with its new
  // count but a higher code. Its lane is the exact match on its character.
  const Slab s = slab_[meta_[code].parent];
  const std::uint64_t ch = meta_[code].ch;
  std::uint32_t lane = 0;
  for (std::uint32_t base = 0;; base += 4) {
    if (const std::uint64_t h = match_hits(s, base, ch, 0xffffu)) {
      lane = base + first_lane(h);
      break;
    }
  }
  const std::uint32_t n = slab_[code].count;
  std::uint32_t* codes = codes_.data() + s.offset;
  std::uint16_t* chars = chars_.data() + s.offset;
  std::uint32_t to = lane;
  for (; to > 0; --to) {
    const std::uint32_t sibling = codes[to - 1];
    const std::uint32_t m = slab_[sibling].count;
    if (m > n || (m == n && sibling < code)) break;
  }
  if (to == lane) return;
  std::copy_backward(codes + to, codes + lane, codes + lane + 1);
  std::copy_backward(chars + to, chars + lane, chars + lane + 1);
  codes[to] = code;
  chars[to] = static_cast<std::uint16_t>(ch);
}

}  // namespace tdc::lzw
