#ifndef TDC_BITS_BITSTREAM_H
#define TDC_BITS_BITSTREAM_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "bits/wordops.h"

namespace tdc::bits {

/// MSB-first bit-serial writer.
///
/// This matches the wire order of the paper's tester interface: the first
/// bit written is the first bit shifted into the on-chip decompressor.
/// Values wider than one bit are emitted most-significant bit first.
///
/// Writes land in a 64-bit staging word and spill to the byte buffer eight
/// bytes at a time, so a 10-bit code costs two shifts and an or — the
/// per-byte chunk loop only runs on the rare ragged flush. The staging word
/// drains lazily: bytes()/bit_at() flush it first, so observable state is
/// always exactly what bit-serial writes would have produced (the batched
/// writer property test pins this, flushes interleaved mid-stream included).
/// Not thread-safe, including the const readers — each stream has exactly
/// one owner everywhere in this codebase.
class BitWriter {
 public:
  /// Builds a writer holding `bit_count` bits copied from a packed MSB-first
  /// byte buffer (the container payload as stored on disk). Bytes beyond the
  /// bit count are ignored; padding bits in the final byte are zeroed so the
  /// writer's buffer is byte-identical to what write()/write_bit() would
  /// have produced. Precondition: data covers ceil(bit_count / 8) bytes.
  static BitWriter from_bytes(const std::uint8_t* data, std::size_t bit_count);

  /// Appends the low `width` bits of `value`, MSB first.
  /// Precondition: width <= 64 and value fits in `width` bits.
  void write(std::uint64_t value, unsigned width) {
    if (width == 0) return;
    const unsigned room = 64u - acc_bits_;
    if (width < room) {
      acc_ = (acc_ << width) | value;
      acc_bits_ += width;
      bit_count_ += width;
      return;
    }
    // The value completes the staging word (and may start the next one).
    const unsigned spill = width - room;
    const std::size_t word_pos = bit_count_ - acc_bits_;
    bit_count_ += width;
    flush_word(word_pos, (acc_bits_ == 0 ? 0 : acc_ << room) | (value >> spill));
    acc_ = value & low_mask(spill);
    acc_bits_ = spill;
  }

  /// Appends a single bit.
  void write_bit(bool b) { write(b ? 1u : 0u, 1); }

  /// Total number of bits written so far.
  std::size_t bit_count() const { return bit_count_; }

  /// Backing storage; the final byte is zero-padded in its low bits.
  const std::vector<std::uint8_t>& bytes() const {
    flush_tail();
    return bytes_;
  }

  /// Reads back bit `i` (0 = first written). Precondition: i < bit_count().
  bool bit_at(std::size_t i) const;

 private:
  /// Spills one full 64-bit staging word whose first bit sits at `pos`.
  void flush_word(std::size_t pos, std::uint64_t word) const;

  /// Drains a partially filled staging word (bytes()/bit_at() barrier).
  void flush_tail() const;

  /// Byte-granular fallback: ORs the low `width` bits of `value` into the
  /// buffer at bit `pos`, growing it as needed. Runs only when the flushed
  /// prefix is not byte-aligned (a mid-stream flush_tail left a ragged
  /// byte) — never on the steady-state encode path.
  void write_chunks(std::size_t pos, std::uint64_t value, unsigned width) const;

  // The staging state is mutable so the const observers can drain it; see
  // the class comment for the single-owner threading contract.
  mutable std::vector<std::uint8_t> bytes_;
  mutable std::uint64_t acc_ = 0;      // low acc_bits_ bits are pending
  mutable unsigned acc_bits_ = 0;      // always < 64
  std::size_t bit_count_ = 0;
};

/// MSB-first bit-serial reader over a BitWriter's output (or raw bytes).
class BitReader {
 public:
  /// Wraps `bytes`, exposing exactly `bit_count` bits.
  BitReader(const std::vector<std::uint8_t>& bytes, std::size_t bit_count)
      : bytes_(&bytes), bit_count_(bit_count) {}

  /// Convenience constructor over a writer's buffer.
  explicit BitReader(const BitWriter& w) : BitReader(w.bytes(), w.bit_count()) {}

  /// Bits still available.
  std::size_t remaining() const { return bit_count_ - pos_; }

  /// True when every bit has been consumed.
  bool exhausted() const { return pos_ >= bit_count_; }

  /// Reads the next `width` bits as an MSB-first unsigned value.
  /// Precondition: width <= 64. A read past the end raises
  /// Error{CodeStreamTruncated} in every build, so decoders of untrusted
  /// payloads need no bound check of their own.
  ///
  /// A read of 1..56 bits with eight bytes left in the buffer is one
  /// big-endian 64-bit load and two shifts: the byte holding the cursor
  /// leaves at most 7 bits to skip, so the window covers the whole field.
  /// Wider reads and the buffer's last seven bytes take read_slow().
  std::uint64_t read(unsigned width) {
    if (width > remaining()) overrun(width);
    const std::size_t byte = pos_ / 8;
    // width - 1 wraps for width == 0, which read_slow() answers with 0.
    if (width - 1u < 56u && byte + 8 <= bytes_->size()) {
      std::uint64_t window = 0;
      std::memcpy(&window, bytes_->data() + byte, sizeof window);
      if constexpr (std::endian::native == std::endian::little) {
        window = byteswap64(window);
      }
      const unsigned skip = static_cast<unsigned>(pos_ % 8);
      pos_ += width;
      return (window << skip) >> (64u - width);
    }
    return read_slow(width);
  }

  /// Reads one bit; past the end it raises like read().
  bool read_bit();

  /// Current cursor position in bits from the start.
  std::size_t position() const { return pos_; }

 private:
  /// Raises Error{CodeStreamTruncated} for a `width`-bit read at pos_.
  [[noreturn]] void overrun(unsigned width) const;

  /// read() one byte chunk at a time (not per bit): the buffer tail, and
  /// widths the window cannot hold. Precondition: width <= remaining().
  std::uint64_t read_slow(unsigned width);

  const std::vector<std::uint8_t>* bytes_;
  std::size_t bit_count_;
  std::size_t pos_ = 0;
};

}  // namespace tdc::bits

#endif  // TDC_BITS_BITSTREAM_H
