#ifndef TDC_LZW_DECODE_CORE_H
#define TDC_LZW_DECODE_CORE_H

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bits/bitstream.h"
#include "bits/tritvector.h"
#include "bits/wordops.h"
#include "core/error.h"
#include "lzw/config.h"
#include "lzw/decoder.h"
#include "lzw/dictionary.h"

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
/// limit ever needs them — and decode memory is bounded by the limit and
/// the bits actually decoded, whatever C_MDATA a header declares.
///
/// Storage stays zero past size() and always holds the word after the one
/// size() falls in, so a one-word read or write at any offset up to size()
/// touches two words with no bounds branch.
class ExpansionPlane {
 public:
  explicit ExpansionPlane(std::uint64_t limit) : words_(2, 0), limit_(limit) {}

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

}  // namespace detail

/// The LZW decode loop behind both lzw::Decoder and hw::DecompressorModel:
/// reads `code_count` codes from the packed stream in `reader`, serves each
/// from the dictionary (including the KwKwK case), updates the dictionary
/// under the encoder's freeze and C_MDATA rules, and calls
/// `observe(const CodeStep&)` per code.
/// Returns the stream truncated to `original_bits`.
///
/// Storage follows the paper's Fig. 5 decompressor, whose dictionary words
/// hold each entry's full expansion so a code costs one memory read. An
/// entry is the previous code's expansion plus the next code's first
/// character, and both already sit back to back in the output, so while
/// the dictionary grows the core keeps one start offset per entry and
/// serves a code with a single block copy of at most C_MDATA bits: the
/// software image of that one read.
///
/// Once all N codes are defined the dictionary never changes again. If an
/// entry fits one 64-bit word (max_entry_chars() * C_C <= 64), the core then
/// lifts every code's expansion out of the output into a table of N
/// (C_MDATA, C_MLEN) words and finishes the stream with one table read per
/// code: no child probe, no add, no offset copy. Larger entries keep the
/// offset copies to the end. Decode memory is the output plus one offset
/// per entry, and at most one table word per code; it never scales with
/// C_MDATA, which arrives untrusted in container headers. The table is
/// built only after N - 2^C_C entries were decoded from the stream.
///
/// Every error carries the failing code index and a stream bit offset:
/// where the code started (CodeStreamTruncated, UndefinedCode), or where
/// the codes ended, with the decoded versus expected bit counts
/// (StreamTooShort).
template <class Observer>
Result<DecodeResult> decode_codes(const LzwConfig& config, bits::BitReader& reader,
                                  std::size_t code_count, std::uint64_t original_bits,
                                  Observer&& observe) {
  Dictionary dict(config);
  const std::uint32_t cc = config.char_bits;
  const std::uint32_t first_code = config.first_code();
  const bool one_word = std::uint64_t{config.max_entry_chars()} * cc <= 64;
  // Entry first_code + i starts at output bit start[i]; each code adds at
  // most one entry, and Dictionary already holds dict_size slots.
  std::vector<std::uint64_t> start;
  start.reserve(std::min<std::uint64_t>(config.dict_size - first_code, code_count));
  detail::ExpansionPlane out(original_bits);

  std::uint32_t prev = kNoCode;
  std::uint64_t prev_start = 0;
  std::size_t idx = 0;
  for (; idx < code_count && !(one_word && dict.full()); ++idx) {
    const std::uint32_t width =
        config.variable_width
            ? std::min(static_cast<std::uint32_t>(std::bit_width(dict.size())),
                       config.code_bits())
            : config.code_bits();
    const std::size_t code_bit_offset = reader.position();
    if (reader.remaining() < width) {
      return detail::truncated_error(idx, code_count, width, code_bit_offset);
    }
    const auto code = static_cast<std::uint32_t>(reader.read(width));

    const std::uint64_t code_start = out.size();
    CodeStep step{.width = width};
    std::uint32_t first = 0;
    if (code < first_code) {
      step.chars = 1;
      first = code;
      out.put_word(bits::reverse_low_bits(code, cc), cc);
    } else if (dict.defined(code)) {
      step.kind = CodeKind::Entry;
      step.chars = dict.length(code);
      first = dict.first_char(code);
      out.copy(start[code - first_code], std::uint64_t{step.chars} * cc);
    } else if (prev != kNoCode && code == dict.next_code() && dict.extendable(prev) &&
               dict.child(prev, dict.first_char(prev)) == kNoCode) {
      // KwKwK (paper Fig. 4f): the code names the entry being defined right
      // now, Buffer plus Buffer's first character. A real encoder only emits
      // this while (prev, first_char) is still undefined; if that child
      // exists the code is corrupt, and treating it as KwKwK would leave
      // `code` undefined and poison `prev`. A full dictionary defines no
      // entry: its next_code() is the kNoCode sentinel, which no code read
      // from the stream can equal (a code is below 2^C_E <= 2^20).
      step.kind = CodeKind::KwKwK;
      step.chars = dict.length(prev) + 1;
      first = dict.first_char(prev);
      out.copy(prev_start, std::uint64_t{step.chars - 1} * cc);
      out.put_word(bits::reverse_low_bits(first, cc), cc);
    } else {
      return detail::undefined_error(code, dict.size(), idx, code_bit_offset);
    }

    // Mirror of the encoder's insertion under the same freeze (capacity)
    // and C_MDATA (width) rules, so the two dictionaries evolve in
    // lockstep; the duplicate-child probe runs only when add() can succeed.
    // The new entry's run starts where prev's did.
    if (prev != kNoCode && !dict.full() && dict.extendable(prev) &&
        dict.child(prev, first) == kNoCode) {
      dict.add(prev, first);
      start.push_back(prev_start);
      step.added = true;
    }
    observe(step);
    prev = code;
    prev_start = code_start;
  }

  if (idx < code_count) {
    // Frozen: every code's expansion is one table word, lifted out of the
    // output (literals are their own expansion). If the output already
    // reached `original_bits`, runs past it read as zeros, but nothing is
    // stored past that limit any more. Every code is now C_E bits: a full
    // dictionary's fill width is C_E.
    std::vector<detail::TableWord> table(config.dict_size);
    for (std::uint32_t c = 0; c < config.dict_size; ++c) {
      const std::uint32_t chars = dict.length(c);
      table[c] = {.data = c < first_code ? bits::reverse_low_bits(c, cc)
                                         : out.field(start[c - first_code], chars * cc),
                  .chars = chars};
    }
    const std::uint32_t width = config.code_bits();
    for (; idx < code_count; ++idx) {
      const std::size_t code_bit_offset = reader.position();
      if (reader.remaining() < width) {
        return detail::truncated_error(idx, code_count, width, code_bit_offset);
      }
      const auto code = static_cast<std::uint32_t>(reader.read(width));
      if (code >= config.dict_size) {
        return detail::undefined_error(code, dict.size(), idx, code_bit_offset);
      }
      const detail::TableWord word = table[code];
      out.put_word(word.data, word.chars * cc);
      observe(CodeStep{.width = width, .chars = word.chars,
                       .kind = code < first_code ? CodeKind::Literal : CodeKind::Entry});
    }
  }

  if (out.size() < original_bits) {
    return detail::decode_error(ErrorKind::StreamTooShort,
                                "decoded " + std::to_string(out.size()) + " of " +
                                    std::to_string(original_bits) + " scan bits from " +
                                    std::to_string(code_count) + " codes",
                                code_count, reader.position());
  }
  DecodeResult result;
  result.bits = std::move(out).take();
  result.dict_codes_used = dict.size();
  return result;
}

}  // namespace tdc::lzw

#endif  // TDC_LZW_DECODE_CORE_H
