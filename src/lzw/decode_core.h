#ifndef TDC_LZW_DECODE_CORE_H
#define TDC_LZW_DECODE_CORE_H

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bits/bitstream.h"
#include "bits/tritvector.h"
#include "bits/wordops.h"
#include "core/error.h"
#include "lzw/config.h"
#include "lzw/decoder.h"

namespace tdc::lzw {

/// How the decode core served one code: the three paths of the paper's
/// Fig. 5 FSM.
enum class CodeKind : std::uint8_t {
  Literal,  ///< code < 2^C_C: the character itself, no dictionary read
  Entry,    ///< a defined dictionary entry: one read of its whole expansion
  KwKwK,    ///< the entry being defined right now (Buffer + Buffer's first
            ///< character), served from the C_MLAST register
};

/// What one code did, handed to the decode core's observer once the code
/// is served and the dictionary updated.
struct CodeStep {
  std::uint32_t width = 0;  ///< stream bits the code occupied
  std::uint32_t chars = 0;  ///< expansion length in characters
  CodeKind kind = CodeKind::Literal;
  bool added = false;  ///< the step defined a new dictionary entry
};

namespace detail {

/// The decoded stream's value plane (the output is fully specified, so the
/// care plane is implied), written only up to `limit` bits: the unpadded
/// original length. Bits decoded past it are dropped, never stored — a
/// later copy only reads bits below where it writes, so nothing below the
/// limit ever needs them — and decode memory is bounded by the limit, one
/// character per code and the bits actually decoded, whatever C_MDATA a
/// header declares.
///
/// Storage stays zero past size() and always holds the word after the one
/// size() falls in, so a one-word read or write at any offset up to size()
/// touches two words with no bounds branch.
class ExpansionPlane {
 public:
  /// Storage starts sized for min(limit, `least`) bits: `least` is what a
  /// successful decode surely stores (one character per code).
  ExpansionPlane(std::uint64_t limit, std::uint64_t least)
      : words_(std::min(limit, least) / 64 + 2, 0), limit_(limit) {}

  /// Bits stored so far: the bits decoded, clipped at the limit.
  std::uint64_t size() const { return size_; }

  /// Appends the `n` stored bits starting at `from`: one word read and
  /// write up to 64 bits, else one block copy.
  /// Precondition: from <= size(), and from + n <= size() whenever
  /// size() < limit.
  void copy(std::uint64_t from, std::uint64_t n) {
    if (n <= 64) {
      put_word(field(from, static_cast<unsigned>(n)), static_cast<unsigned>(n));
      return;
    }
    n = std::min(n, limit_ - size_);
    grow(size_ + n);
    bits::or_plane_bits(words_.data(), words_.size(), size_, words_.data(),
                        words_.size(), from, n);
    size_ += n;
  }

  /// Appends the low `n` bits of `word` (n <= 64, higher bits zero), the
  /// first stream bit lowest: one character, or one frozen-table word.
  void put_word(std::uint64_t word, unsigned n) {
    if (n > limit_ - size_) {  // clipped at the limit
      n = static_cast<unsigned>(limit_ - size_);
      word &= bits::low_mask(n);
    }
    const std::size_t w = size_ / 64;
    const unsigned off = size_ % 64;
    words_[w] |= word << off;
    words_[w + 1] |= (word >> 1) >> (63 - off);  // the spill; 0 when off == 0
    size_ += n;
    grow(size_);
  }

  /// The `n` bits starting at `from` as one word, first bit lowest
  /// (1 <= n <= 64); bits at or past size() read as 0.
  /// Precondition: from <= size().
  std::uint64_t field(std::uint64_t from, unsigned n) const {
    const std::size_t w = from / 64;
    const unsigned off = from % 64;
    const std::uint64_t raw = (words_[w] >> off) | ((words_[w + 1] << 1) << (63 - off));
    return raw & bits::low_mask(n);
  }

  /// The stored bits as a fully specified TritVector.
  bits::TritVector take() && {
    return bits::TritVector::from_value_plane(std::move(words_), size_);
  }

 private:
  /// Grows the zeroed storage (geometrically) to hold `bits` bits plus the
  /// word after the last one.
  void grow(std::uint64_t bits) {
    const std::size_t need = bits / 64 + 2;
    if (need > words_.size()) words_.resize(std::max(need, 2 * words_.size()), 0);
  }

  std::vector<std::uint64_t> words_;
  std::uint64_t size_ = 0;
  std::uint64_t limit_;
};

inline Error decode_error(ErrorKind kind, std::string message, std::size_t code_index,
                          std::size_t bit_offset) {
  Error err{kind, std::move(message)};
  err.code_index = static_cast<std::int64_t>(code_index);
  err.bit_offset = static_cast<std::int64_t>(bit_offset);
  return err;
}

inline Error truncated_error(std::size_t idx, std::size_t code_count, std::uint32_t width,
                             std::size_t bit_offset) {
  return decode_error(ErrorKind::CodeStreamTruncated,
                      "payload ends inside code " + std::to_string(idx) + " of " +
                          std::to_string(code_count) + " (" + std::to_string(width) +
                          " bits needed)",
                      idx, bit_offset);
}

inline Error undefined_error(std::uint32_t code, std::uint32_t dict_codes, std::size_t idx,
                             std::size_t bit_offset) {
  return decode_error(ErrorKind::UndefinedCode,
                      "code value " + std::to_string(code) +
                          " undefined (dictionary holds " + std::to_string(dict_codes) +
                          " codes, not the KwKwK case)",
                      idx, bit_offset);
}

/// One word of the Fig. 5 dictionary memory: a code's whole expansion
/// (the C_MDATA field, first stream bit lowest) and its length in
/// characters (the C_MLEN field).
struct TableWord {
  std::uint64_t data = 0;
  std::uint32_t chars = 0;
};

/// An entry too wide for one word: where its latest run starts in the
/// output, its length in characters and its first character (as stream
/// bits, first bit lowest).
struct WideEntry {
  std::uint64_t start = 0;
  std::uint32_t chars = 0;
  std::uint32_t first = 0;
};

/// The exact set of defined (parent code, appended character) pairs: the
/// only trie question a decoder asks. Open addressing with linear probing
/// at load <= 1/2; a pair packs into one 64-bit key (code < 2^20,
/// character < 2^16).
class ChildIndex {
 public:
  /// Room for `adds` pairs at load <= 1/2. The caller never inserts more.
  explicit ChildIndex(std::size_t adds)
      : slots_(std::bit_ceil(std::max<std::size_t>(2 * adds, 2)), kEmpty),
        shift_(64 - static_cast<unsigned>(std::countr_zero(slots_.size()))) {}

  bool contains(std::uint32_t parent, std::uint32_t ch) const {
    return slots_[slot(pack(parent, ch))] != kEmpty;
  }

  /// Adds the pair; false when it was already there.
  bool insert(std::uint32_t parent, std::uint32_t ch) {
    const std::uint64_t key = pack(parent, ch);
    std::uint64_t& s = slots_[slot(key)];
    if (s == key) return false;
    s = key;
    return true;
  }

 private:
  static constexpr std::uint64_t kEmpty = ~0ULL;
  static std::uint64_t pack(std::uint32_t parent, std::uint32_t ch) {
    return std::uint64_t{parent} << 16 | ch;
  }
  /// The slot that holds `key`, or the empty slot its probe ends at.
  std::size_t slot(std::uint64_t key) const {
    std::size_t i = home(key);
    while (slots_[i] != key && slots_[i] != kEmpty) i = (i + 1) & (slots_.size() - 1);
    return i;
  }
  /// Fibonacci hashing: the key's golden-ratio product, top bits.
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  std::vector<std::uint64_t> slots_;
  unsigned shift_;
};

/// decode_codes for one entry form: `OneWord` when every entry fits a
/// TableWord (max_entry_chars() * C_C <= 64), WideEntry otherwise.
template <bool OneWord, class Observer>
Result<DecodeResult> decode_entries(const LzwConfig& config, bits::BitReader& reader,
                                    std::size_t code_count, std::uint64_t original_bits,
                                    Observer& observe) {
  using Entry = std::conditional_t<OneWord, TableWord, WideEntry>;
  const std::uint32_t cc = config.char_bits;
  const std::uint32_t first_code = config.first_code();
  const std::uint32_t dict_size = config.dict_size;
  const std::uint32_t max_chars = config.max_entry_chars();
  // Entry first_code + i is entries[i]. Every code after the first defines
  // at most one entry, at most N - 2^C_C fit, and every code takes at
  // least one stream bit: the stream, not the header's N or C_MDATA,
  // sizes the state.
  const std::uint64_t codes = std::min<std::uint64_t>(code_count, reader.remaining());
  const std::size_t adds = std::min<std::uint64_t>(dict_size - first_code, codes);
  std::vector<Entry> entries;
  entries.reserve(adds);
  ChildIndex children(adds);
  ExpansionPlane out(original_bits, codes * cc);
  // A character as stream bits, first bit lowest: what a literal stores,
  // and the child index's key.
  const auto literal_bits = [cc](std::uint32_t code) {
    return static_cast<std::uint32_t>(bits::reverse_low_bits(code, cc));
  };
  const auto first_of = [cc](const Entry& e) {
    if constexpr (OneWord) {
      return static_cast<std::uint32_t>(e.data & bits::low_mask(cc));
    } else {
      return e.first;
    }
  };

  std::uint32_t size = first_code;  // codes defined
  std::uint32_t prev = 0;           // the previous code, when idx > 0
  Entry prev_entry{};               // its expansion
  // One-word entries switch to the frozen loop once all N codes are
  // defined. With N = 2^C_C there is no entry to add, and the literals
  // this loop serves need no table.
  const bool freezes = OneWord && dict_size > first_code;
  std::size_t idx = 0;
  for (; idx < code_count && !(freezes && size == dict_size); ++idx) {
    const std::uint32_t width =
        config.variable_width
            ? std::min(static_cast<std::uint32_t>(std::bit_width(size)), config.code_bits())
            : config.code_bits();
    const std::size_t code_bit_offset = reader.position();
    if (reader.remaining() < width) {
      return truncated_error(idx, code_count, width, code_bit_offset);
    }
    const auto code = static_cast<std::uint32_t>(reader.read(width));

    CodeStep step{.width = width};
    Entry cur;
    if constexpr (!OneWord) cur.start = out.size();
    if (code < first_code) {
      cur.chars = 1;
      if constexpr (OneWord) {
        cur.data = literal_bits(code);
        out.put_word(cur.data, cc);
      } else {
        cur.first = literal_bits(code);
        out.put_word(cur.first, cc);
      }
    } else if (code < size) {
      step.kind = CodeKind::Entry;
      const Entry& e = entries[code - first_code];
      if constexpr (OneWord) {
        cur = e;
        out.put_word(e.data, e.chars * cc);
      } else {
        cur.chars = e.chars;
        cur.first = e.first;
        out.copy(e.start, std::uint64_t{e.chars} * cc);
      }
    } else if (idx > 0 && code == size && size < dict_size && prev_entry.chars < max_chars &&
               !children.contains(prev, first_of(prev_entry))) {
      // KwKwK (paper Fig. 4f): the code names the entry being defined right
      // now, Buffer plus Buffer's first character. A real encoder only emits
      // this while (prev, first character) is still undefined; if that
      // child exists the code is corrupt, and treating it as KwKwK would
      // leave `code` undefined and poison `prev`. A full dictionary defines
      // no entry, so no code is KwKwK once size reaches N.
      step.kind = CodeKind::KwKwK;
      const std::uint32_t first = first_of(prev_entry);
      cur.chars = prev_entry.chars + 1;
      if constexpr (OneWord) {
        cur.data = prev_entry.data | std::uint64_t{first} << (prev_entry.chars * cc);
        out.put_word(cur.data, cur.chars * cc);
      } else {
        cur.first = first;
        out.copy(prev_entry.start, std::uint64_t{prev_entry.chars} * cc);
        out.put_word(first, cc);
      }
    } else {
      return undefined_error(code, size, idx, code_bit_offset);
    }
    step.chars = cur.chars;

    // Mirror of the encoder's insertion under the same freeze (capacity)
    // and C_MDATA (width) rules, so the two dictionaries evolve in
    // lockstep; the duplicate-child probe runs only when the add can
    // happen. The new entry is prev's expansion plus cur's first
    // character, which sit back to back in the output.
    const std::uint32_t first = first_of(cur);
    if (idx > 0 && size < dict_size && prev_entry.chars < max_chars &&
        children.insert(prev, first)) {
      Entry added = prev_entry;
      added.chars = prev_entry.chars + 1;
      if constexpr (OneWord) added.data |= std::uint64_t{first} << (prev_entry.chars * cc);
      entries.push_back(added);
      ++size;
      step.added = true;
    }
    observe(step);
    prev = code;
    prev_entry = cur;
  }

  if constexpr (OneWord) {
    // Frozen: the dictionary is full and never changes again, so every
    // code is one word read, with no child probe and no add. The word
    // table is the literals' words followed by the words the adds built,
    // indexed by code with no literal branch. It is laid out once, after
    // all N - 2^C_C >= 1 entries were decoded from the stream. Every code
    // is now C_E bits: a full dictionary's fill width is C_E.
    if (idx < code_count) {
      std::vector<TableWord> table(first_code);
      for (std::uint32_t c = 0; c < first_code; ++c) {
        table[c] = {.data = literal_bits(c), .chars = 1};
      }
      table.insert(table.end(), entries.begin(), entries.end());
      const std::uint32_t width = config.code_bits();
      for (; idx < code_count; ++idx) {
        const std::size_t code_bit_offset = reader.position();
        if (reader.remaining() < width) {
          return truncated_error(idx, code_count, width, code_bit_offset);
        }
        const auto code = static_cast<std::uint32_t>(reader.read(width));
        if (code >= dict_size) {
          return undefined_error(code, size, idx, code_bit_offset);
        }
        const TableWord word = table[code];
        out.put_word(word.data, word.chars * cc);
        observe(CodeStep{.width = width, .chars = word.chars,
                         .kind = code < first_code ? CodeKind::Literal : CodeKind::Entry});
      }
    }
  }

  if (out.size() < original_bits) {
    return decode_error(ErrorKind::StreamTooShort,
                        "decoded " + std::to_string(out.size()) + " of " +
                            std::to_string(original_bits) + " scan bits from " +
                            std::to_string(code_count) + " codes",
                        code_count, reader.position());
  }
  DecodeResult result;
  result.bits = std::move(out).take();
  result.dict_codes_used = size;
  return result;
}

}  // namespace detail

/// The LZW decode loop behind both lzw::Decoder and hw::DecompressorModel:
/// reads `code_count` codes from the packed stream in `reader`, serves each
/// from the dictionary (including the KwKwK case), updates the dictionary
/// under the encoder's freeze and C_MDATA rules, and calls
/// `observe(const CodeStep&)` per code.
/// Returns the stream truncated to `original_bits`.
///
/// The dictionary is decoder-only state in the form of the paper's Fig. 5
/// memory, whose words hold each entry's full expansion so a code costs
/// one read, plus an exact (parent, character) ChildIndex for the two
/// questions a decoder asks of the trie: is a KwKwK code valid, and would
/// an add duplicate an entry. An entry is the previous code's expansion
/// plus the next code's first character:
///  * When every entry fits one 64-bit word (max_entry_chars() * C_C <=
///    64, every paper configuration), the add builds the entry's
///    (C_MDATA, C_MLEN) TableWord from the previous code's word, and a
///    code is served with one word write. Once all N codes are defined,
///    a second loop serves every code from those words, with the
///    literals' words laid in front, and no probe and no add.
///  * Wider entries keep where the previous code's run starts in the
///    output, its length and its first character, and serve a code with a
///    single block copy of at most C_MDATA bits out of the output.
/// Every structure is sized by the adds the stream can make,
/// min(N - 2^C_C, code_count, stream bits), and the frozen loop's N-word
/// table is laid out only after the stream made all N - 2^C_C adds: decode
/// memory never scales with N or C_MDATA, which arrive untrusted in
/// container headers.
///
/// Every error carries the failing code index and a stream bit offset:
/// where the code started (CodeStreamTruncated, UndefinedCode), or where
/// the codes ended, with the decoded versus expected bit counts
/// (StreamTooShort).
template <class Observer>
Result<DecodeResult> decode_codes(const LzwConfig& config, bits::BitReader& reader,
                                  std::size_t code_count, std::uint64_t original_bits,
                                  Observer&& observe) {
  if (std::uint64_t{config.max_entry_chars()} * config.char_bits <= 64) {
    return detail::decode_entries<true>(config, reader, code_count, original_bits, observe);
  }
  return detail::decode_entries<false>(config, reader, code_count, original_bits, observe);
}

}  // namespace tdc::lzw

#endif  // TDC_LZW_DECODE_CORE_H
