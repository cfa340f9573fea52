#ifndef TDC_BITS_WIRE_H
#define TDC_BITS_WIRE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bits/bitstream.h"

namespace tdc::bits {

// The byte layout every serialized format in the project shares — the
// TDCLZW1/2/3 containers and the per-codec chunk payloads: integers are
// little-endian, and a bit stream is a u64 bit count followed by the
// BitWriter's MSB-first bytes.

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
}

/// Writes a bit-stream image: u64 bit count + ceil(count / 8) bytes.
inline void put_stream(std::vector<std::uint8_t>& out, const BitWriter& stream) {
  put_u64(out, stream.bit_count());
  const auto& bytes = stream.bytes();
  out.insert(out.end(), bytes.begin(), bytes.end());
}

/// Reads a field the caller has already bounds-checked.
inline std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

inline std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

/// Bounds-checked reads over untrusted bytes (a chunk payload). Every getter
/// returns false once the bytes left cannot hold its field; the decode entry
/// points turn that into a typed InvalidInput.
struct ByteCursor {
  const std::vector<std::uint8_t>& bytes;
  std::size_t pos = 0;

  bool get_u32(std::uint32_t& v) {
    if (bytes.size() - pos < 4) return false;
    v = bits::get_u32(bytes.data() + pos);
    pos += 4;
    return true;
  }

  bool get_u64(std::uint64_t& v) {
    if (bytes.size() - pos < 8) return false;
    v = bits::get_u64(bytes.data() + pos);
    pos += 8;
    return true;
  }

  /// Reads a bit-stream image written by put_stream.
  bool get_stream(BitWriter& stream) {
    std::uint64_t bit_count = 0;
    if (!get_u64(bit_count)) return false;
    // Rounded up without the + 7 that wraps a count near 2^64 to no bytes.
    const std::uint64_t byte_count = bit_count / 8 + (bit_count % 8 != 0 ? 1 : 0);
    if (bytes.size() - pos < byte_count) return false;
    stream = BitWriter::from_bytes(bytes.data() + pos,
                                   static_cast<std::size_t>(bit_count));
    pos += static_cast<std::size_t>(byte_count);
    return true;
  }

  bool exhausted() const { return pos == bytes.size(); }
};

}  // namespace tdc::bits

#endif  // TDC_BITS_WIRE_H
