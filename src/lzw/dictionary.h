#ifndef TDC_LZW_DICTIONARY_H
#define TDC_LZW_DICTIONARY_H

#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "bits/wordops.h"
#include "core/contracts.h"
#include "lzw/config.h"

namespace tdc::lzw {

/// Sentinel meaning "no code".
inline constexpr std::uint32_t kNoCode = 0xffffffffu;

/// The order a code's children keep inside its slab. Codes grow in
/// insertion order, so under Insertion a slab is also in increasing code
/// order. The encoder picks the order that puts its tie-break's winner at
/// the first compatible lane; the decoder only looks children up exactly,
/// so it keeps Insertion.
enum class SlabOrder {
  Insertion,   ///< append: First, MostRecent, Lookahead and the decoder
  Char,        ///< ascending character: LowestChar
  ChildCount,  ///< more children first, then lower code: MostChildren
};

/// The LZW dictionary, shared in structure between compressor and
/// decompressor so the two stay in lockstep (the paper's central
/// requirement: "the same algorithm is used for both compression and
/// decompression").
///
/// Codes [0, 2^C_C) are implicit literals. Every explicit entry is a
/// (parent code, appended character) pair; its uncompressed expansion is the
/// parent's expansion followed by the character. Entry expansions are capped
/// at max_entry_chars() characters — the embedded-memory word bound that the
/// paper introduces so the hardware can fetch a whole expansion in one read.
///
/// The structure is a trie stored as flat arrays rather than per-node heap
/// objects: the fields of code `c` live at index `c` of the per-code arrays,
/// and the first character of every expansion is memoized at add time,
/// making first_char() O(1) (the decoder consults it per code).
///
/// Each code's children sit in one contiguous slab, in the SlabOrder its
/// adds keep (insertion order, which is also increasing code order, by
/// default): their characters in a uint16_t arena (C_C <= 16) and their
/// codes in a parallel uint32_t arena. A slab's capacity follows from its
/// count — a power of two, at least 4 — and add() writes the new child into
/// the slab, first moving a full slab to the arenas' end at twice the
/// size. Matching a ternary character against a slab is one SWAR
/// kernel over four 16-bit lanes per 64-bit word (match_hits): the encoder
/// answers every tie-break from the first (or, for MostRecent, the last)
/// compatible lane, and an exact lookup (child()) is the same kernel with a
/// full care mask, so no separate (code, character) index exists.
class Dictionary {
 public:
  explicit Dictionary(const LzwConfig& config);

  const LzwConfig& config() const { return config_; }

  /// Total codes currently defined (literals + entries).
  std::uint32_t size() const { return next_code_; }

  /// Next code index that add() would define, or kNoCode when full.
  std::uint32_t next_code() const { return full() ? kNoCode : next_code_; }

  /// True when all N codes are defined (dictionary freeze).
  bool full() const { return next_code_ >= config_.dict_size; }

  /// True iff `code` is currently defined.
  bool defined(std::uint32_t code) const { return code < next_code_; }

  /// Expansion length of `code` in characters (1 for literals).
  std::uint32_t length(std::uint32_t code) const { return meta_[code].length; }

  /// Expansion length of `code` in bits.
  std::uint64_t length_bits(std::uint32_t code) const {
    return static_cast<std::uint64_t>(length(code)) * config_.char_bits;
  }

  /// Parent of `code` (kNoCode for literals).
  std::uint32_t parent(std::uint32_t code) const { return meta_[code].parent; }

  /// Last character of `code`'s expansion (the literal value for literals).
  std::uint32_t last_char(std::uint32_t code) const { return meta_[code].ch; }

  /// First character of `code`'s expansion — O(1), memoized at add time.
  /// Inline: the decode core reads it for every code.
  std::uint32_t first_char(std::uint32_t code) const {
    TDC_REQUIRE(defined(code), "first_char: undefined code");
    return meta_[code].root_ch;
  }

  /// Full expansion of `code`, first character first: one backward walk of
  /// the parent chain (the reference path; the decode core copies entries
  /// out of its output instead).
  std::vector<std::uint32_t> expand(std::uint32_t code) const;

  /// Child of `code` along exactly character `ch`, or kNoCode: the match
  /// kernel with a full care mask, so at most one lane can hit and the
  /// scan stops at the first nonzero word.
  std::uint32_t child(std::uint32_t code, std::uint32_t ch) const {
    return first_match(code, ch, 0xffffu);
  }

  /// The match scans below test `code`'s children against the ternary
  /// character (value, care): a child is compatible when its character
  /// agrees with `value` on every `care` bit. Precondition: value, care
  /// < 2^16.

  /// First compatible child of `code` in slab order (the oldest under
  /// Insertion), or kNoCode; stops at the first nonzero word.
  std::uint32_t first_match(std::uint32_t code, std::uint64_t value,
                            std::uint64_t care) const {
    const Slab s = slab_[code];
    for (std::uint32_t base = 0; base < s.count; base += 4) {
      if (const std::uint64_t h = match_hits(s, base, value, care)) {
        return codes_[s.offset + base + first_lane(h)];
      }
    }
    return kNoCode;
  }

  /// Last compatible child of `code` in slab order (the newest, highest
  /// code under Insertion), or kNoCode; scans from the slab's end and stops
  /// at the first nonzero word.
  std::uint32_t last_match(std::uint32_t code, std::uint64_t value, std::uint64_t care) const {
    const Slab s = slab_[code];
    for (std::uint32_t end = s.count; end > 0;) {
      const std::uint32_t base = (end - 1) & ~3u;
      if (const std::uint64_t h = match_hits(s, base, value, care)) {
        const auto lane = static_cast<std::uint32_t>(std::bit_width(h) - 1) >> 4;
        return codes_[s.offset + base + lane];
      }
      end = base;
    }
    return kNoCode;
  }

  /// Calls `visit(child, ch)` for every compatible child of `code` and its
  /// character, in slab order, until `visit` returns false.
  template <class Visit>
  void for_each_match(std::uint32_t code, std::uint64_t value, std::uint64_t care,
                      Visit&& visit) const {
    const Slab s = slab_[code];
    for (std::uint32_t base = 0; base < s.count; base += 4) {
      for (std::uint64_t h = match_hits(s, base, value, care); h != 0; h &= h - 1) {
        const std::uint32_t i = s.offset + base + first_lane(h);
        if (!visit(codes_[i], std::uint32_t{chars_[i]})) return;
      }
    }
  }

  /// Forward iterator over a code's children as (character, child code)
  /// pairs, in slab order. Yields by value; the pairs are read from the two
  /// parallel slab arenas.
  class ChildIterator {
   public:
    using value_type = std::pair<std::uint32_t, std::uint32_t>;

    ChildIterator(const std::uint16_t* ch, const std::uint32_t* code) : ch_(ch), code_(code) {}

    value_type operator*() const { return {*ch_, *code_}; }
    ChildIterator& operator++() {
      ++ch_;
      ++code_;
      return *this;
    }
    bool operator!=(const ChildIterator& other) const { return ch_ != other.ch_; }
    bool operator==(const ChildIterator& other) const { return ch_ == other.ch_; }

   private:
    const std::uint16_t* ch_;
    const std::uint32_t* code_;
  };

  /// View of `code`'s children in slab order; size() is O(1). Valid until
  /// the next add().
  class ChildRange {
   public:
    ChildRange(const Dictionary* dict, std::uint32_t code)
        : ch_(dict->chars_.data() + dict->slab_[code].offset),
          code_(dict->codes_.data() + dict->slab_[code].offset),
          count_(dict->slab_[code].count) {}
    ChildIterator begin() const { return ChildIterator(ch_, code_); }
    ChildIterator end() const { return ChildIterator(ch_ + count_, code_ + count_); }
    std::size_t size() const { return count_; }
    bool empty() const { return size() == 0; }

   private:
    const std::uint16_t* ch_;
    const std::uint32_t* code_;
    std::uint32_t count_;
  };

  /// All (character, child code) pairs under `code`, in slab order
  /// (insertion order unless the adds kept another SlabOrder).
  ChildRange children(std::uint32_t code) const { return ChildRange(this, code); }

  /// Number of children of `code` — O(1).
  std::uint32_t child_count(std::uint32_t code) const {
    return slab_[code].count;
  }

  /// True when appending one character to `code` would still fit in a
  /// dictionary entry (the C_MDATA bound).
  bool extendable(std::uint32_t code) const {
    return length(code) + 1 <= config_.max_entry_chars();
  }

  /// Defines the next code as (parent, ch) if the dictionary is not full and
  /// the entry fits the C_MDATA bound. Returns the new code or kNoCode when
  /// nothing was added. The new child takes its lane in the parent's slab
  /// under `Order`: appended (Insertion), at its sorted lane (Char), or
  /// appended while the parent moves left in its own parent's slab past the
  /// siblings it now outranks (ChildCount). Insertion does no work beyond
  /// the append. Preconditions: defined(parent), no existing (parent, ch)
  /// child, ch < 2^C_C, and every add to this dictionary uses one Order.
  template <SlabOrder Order = SlabOrder::Insertion>
  std::uint32_t add(std::uint32_t parent, std::uint32_t ch);

  /// Longest expansion (in bits) over all currently defined codes.
  std::uint64_t longest_entry_bits() const { return longest_bits_; }

 private:
  /// Match/expand fields: parent chain, memoized first character, expansion
  /// length, the character this code appends. 16 bytes per code.
  struct Meta {
    std::uint32_t parent = kNoCode;
    std::uint32_t root_ch = 0;  // first character of the expansion
    std::uint32_t length = 0;   // expansion length in characters
    std::uint32_t ch = 0;       // last character of the expansion
  };

  /// A code's child slab: `count` children at [offset, offset + count) of
  /// chars_ and codes_, capacity max(4, bit_ceil(count)) (0 when empty).
  struct Slab {
    std::uint32_t offset = 0;
    std::uint32_t count = 0;
  };

  /// Compatibility hits of the slab's children [base, base + 4) against
  /// (value, care): bit 16k + 15 is set iff child base + k exists and is
  /// compatible. Precondition: base is a multiple of 4 below s.count. The
  /// one SWAR kernel every match scan runs.
  std::uint64_t match_hits(Slab s, std::uint32_t base, std::uint64_t value,
                           std::uint64_t care) const {
    std::uint64_t lanes = 0;
    // The load stays inside the slab: offsets and capacities are multiples
    // of 4 and base < count <= capacity.
    std::memcpy(&lanes, chars_.data() + s.offset + base, sizeof lanes);
    if constexpr (std::endian::native == std::endian::big) {
      lanes = (lanes << 32) | (lanes >> 32);
      lanes = ((lanes & 0x0000FFFF0000FFFFULL) << 16) |
              ((lanes >> 16) & 0x0000FFFF0000FFFFULL);
    }
    constexpr std::uint64_t kLaneOnes = 0x0001000100010001ULL;
    std::uint64_t hits = bits::zero_lanes16((lanes ^ value * kLaneOnes) & care * kLaneOnes);
    // Lanes at or past the count hold stale or zero characters.
    if (const std::uint32_t left = s.count - base; left < 4) {
      hits &= (1ULL << (16 * left)) - 1;
    }
    return hits;
  }

  /// Lane of the lowest hit bit of match_hits().
  static std::uint32_t first_lane(std::uint64_t hits) {
    return static_cast<std::uint32_t>(std::countr_zero(hits)) >> 4;
  }

  /// Moves `code`, whose child count just grew by one, left in its
  /// parent's ChildCount-ordered slab past the siblings it now outranks.
  void lift(std::uint32_t code);

  LzwConfig config_;
  std::vector<Meta> meta_;
  std::vector<Slab> slab_;
  std::vector<std::uint16_t> chars_;
  std::vector<std::uint32_t> codes_;
  std::uint32_t next_code_ = 0;
  std::uint64_t longest_bits_ = 0;
};

}  // namespace tdc::lzw

#endif  // TDC_LZW_DICTIONARY_H
