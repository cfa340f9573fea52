#include "lzw/dictionary.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "core/contracts.h"

namespace tdc::lzw {

Dictionary::Dictionary(const LzwConfig& config) : config_(config) {
  config_.validate();
  // All arenas sized once for the full dictionary: add() never allocates,
  // and every field of code c sits at index c of a flat array.
  sib_.reserve(config_.dict_size);
  meta_.reserve(config_.dict_size);
  tail_.assign(config_.dict_size, Tail{});
  // Hash index sized once for the full dictionary: power of two with load
  // factor <= 1/2 even at dictionary freeze, so probes stay short.
  const std::size_t slots =
      std::bit_ceil<std::size_t>(std::max<std::size_t>(16, 2 * config_.dict_size));
  index_.assign(slots, IndexSlot{});
  index_shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
  // Literal codes: one root per possible uncompressed character.
  for (std::uint32_t c = 0; c < config_.literal_count(); ++c) {
    sib_.push_back(SibLink{.ch = c, .next = kNoCode});
    meta_.push_back(Meta{.parent = kNoCode, .root_ch = c, .length = 1,
                         .first_child = kNoCode});
  }
  next_code_ = config_.literal_count();
  longest_bits_ = config_.char_bits;
}

std::vector<std::uint32_t> Dictionary::expand(std::uint32_t code) const {
  TDC_REQUIRE(defined(code), "expand: undefined code");
  std::vector<std::uint32_t> out(length(code));
  std::uint32_t c = code;
  for (std::size_t i = out.size(); i-- > 0;) {
    out[i] = sib_[c].ch;
    c = meta_[c].parent;
  }
  return out;
}

void Dictionary::index_insert(std::uint32_t parent, std::uint32_t ch,
                              std::uint32_t child) {
  const std::uint64_t key = index_key(parent, ch);
  const std::size_t mask = index_.size() - 1;
  std::size_t slot = index_home(key);
  while (index_[slot].key != kEmptySlot) slot = (slot + 1) & mask;
  index_[slot] = IndexSlot{.key = key, .child = child};
}

std::uint32_t Dictionary::add(std::uint32_t parent, std::uint32_t ch) {
  assert(defined(parent));
  assert(ch < config_.literal_count());
  assert(child(parent, ch) == kNoCode);
  if (full() || !extendable(parent)) return kNoCode;
  const std::uint32_t code = next_code_++;
  sib_.push_back(SibLink{.ch = ch, .next = kNoCode});
  const Meta& pm = meta_[parent];
  const std::uint32_t new_length = pm.length + 1;
  meta_.push_back(Meta{.parent = parent, .root_ch = pm.root_ch,
                       .length = new_length, .first_child = kNoCode});
  // Link into the parent's child chain at the tail so children() preserves
  // insertion order (the First tie-break's contract).
  Tail& pt = tail_[parent];
  if (pt.last_child == kNoCode) {
    meta_[parent].first_child = code;
  } else {
    sib_[pt.last_child].next = code;
  }
  pt.last_child = code;
  ++pt.count;
  index_insert(parent, ch, code);
  longest_bits_ = std::max<std::uint64_t>(
      longest_bits_,
      static_cast<std::uint64_t>(new_length) * config_.char_bits);
  return code;
}

}  // namespace tdc::lzw
