#include "bits/bitstream.h"

#include <cassert>
#include <cstring>
#include <string>

#include "core/error.h"

namespace tdc::bits {

BitWriter BitWriter::from_bytes(const std::uint8_t* data, std::size_t bit_count) {
  BitWriter w;
  w.bit_count_ = bit_count;
  w.bytes_.assign(data, data + (bit_count + 7) / 8);
  if (bit_count % 8 != 0 && !w.bytes_.empty()) {
    // Zero the padding so equality with an incrementally built writer holds.
    w.bytes_.back() &= static_cast<std::uint8_t>(0xFFu << (8 - bit_count % 8));
  }
  return w;
}

void BitWriter::flush_word(std::size_t pos, std::uint64_t word) const {
  if (pos % 8 == 0) {
    // Steady state: the flushed prefix is whole bytes — append the word as
    // eight big-endian bytes in one store.
    const std::size_t off = pos / 8;
    if (bytes_.size() < off + 8) {
      if (off + 8 > bytes_.capacity()) {
        bytes_.reserve(std::max<std::size_t>(off + 8, 2 * bytes_.capacity()));
      }
      bytes_.resize(off + 8, 0);
    }
    const std::uint64_t be = byteswap64(word);
    std::memcpy(bytes_.data() + off, &be, 8);
    return;
  }
  write_chunks(pos, word, 64);
}

void BitWriter::flush_tail() const {
  if (acc_bits_ == 0) return;
  write_chunks(bit_count_ - acc_bits_, acc_ & low_mask(acc_bits_), acc_bits_);
  acc_ = 0;
  acc_bits_ = 0;
}

void BitWriter::write_chunks(std::size_t pos, std::uint64_t value,
                             unsigned width) const {
  const std::size_t needed = (pos + width + 7) / 8;
  if (needed > bytes_.size()) {
    // Geometric growth: resize() alone gives no amortization guarantee.
    if (needed > bytes_.capacity()) {
      bytes_.reserve(std::max(needed, 2 * bytes_.capacity()));
    }
    bytes_.resize(needed, 0);
  }
  // Stuff byte-sized chunks MSB first.
  unsigned rem = width;
  while (rem > 0) {
    const unsigned free_bits = 8 - static_cast<unsigned>(pos % 8);
    const unsigned chunk = rem < free_bits ? rem : free_bits;
    const auto bits =
        static_cast<std::uint8_t>((value >> (rem - chunk)) & ((1u << chunk) - 1));
    bytes_[pos / 8] = static_cast<std::uint8_t>(
        bytes_[pos / 8] | (bits << (free_bits - chunk)));
    pos += chunk;
    rem -= chunk;
  }
}

bool BitWriter::bit_at(std::size_t i) const {
  assert(i < bit_count_);
  flush_tail();
  return (bytes_[i / 8] >> (7 - (i % 8))) & 1u;
}

void BitReader::overrun(unsigned width) const {
  Error{.kind = ErrorKind::CodeStreamTruncated,
        .message = "bit stream ends at bit " + std::to_string(bit_count_) +
                   ": cannot read " + std::to_string(width) + " bits at bit " +
                   std::to_string(pos_),
        .bit_offset = static_cast<std::int64_t>(pos_)}
      .raise();
}

std::uint64_t BitReader::read_slow(unsigned width) {
  assert(width <= 64);
  const std::uint8_t* data = bytes_->data();
  std::uint64_t v = 0;
  unsigned rem = width;
  while (rem > 0) {
    const unsigned avail = 8 - static_cast<unsigned>(pos_ % 8);
    const unsigned take = rem < avail ? rem : avail;
    const unsigned chunk =
        (static_cast<unsigned>(data[pos_ / 8]) >> (avail - take)) &
        ((1u << take) - 1u);
    v = (v << take) | chunk;
    pos_ += take;
    rem -= take;
  }
  return v;
}

bool BitReader::read_bit() {
  if (pos_ >= bit_count_) overrun(1);
  const bool b = ((*bytes_)[pos_ / 8] >> (7 - (pos_ % 8))) & 1u;
  ++pos_;
  return b;
}

}  // namespace tdc::bits
