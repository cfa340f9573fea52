#ifndef TDC_CODEC_HUFFMAN_H
#define TDC_CODEC_HUFFMAN_H

#include <cstdint>
#include <string>
#include <vector>

#include "bits/bitstream.h"
#include "bits/tritvector.h"
#include "bits/wire.h"

namespace tdc::codec {

/// Selective-Huffman test-data compression (Jas, Ghosh-Dastidar & Touba,
/// VTS'99 — refs [5]/[6] of the reproduced paper).
///
/// The scan stream is cut into fixed-size blocks. The encoder clusters the
/// ternary blocks don't-care-aware (an X matches either value), keeps the
/// `codebook_size` most frequent fully-bound patterns, and Huffman-codes
/// them; any block incompatible with every codebook pattern is emitted as
/// an escape prefix plus its raw bits. The codebook travels out-of-band
/// (like the LZW configurator state).
struct HuffmanConfig {
  std::uint32_t block_bits = 8;      ///< block size in scan bits
  std::uint32_t codebook_size = 16;  ///< coded patterns (escape excluded)
};

/// One codebook entry: a fully specified pattern and its code word.
struct HuffmanEntry {
  std::uint64_t pattern = 0;  ///< block value, MSB-first
  std::uint32_t code = 0;     ///< Huffman code word (MSB-first)
  std::uint32_t code_len = 0;
};

struct HuffmanResult {
  HuffmanConfig config;
  std::vector<HuffmanEntry> codebook;
  std::uint32_t escape_code = 0;
  std::uint32_t escape_len = 0;
  bits::BitWriter stream;
  std::uint64_t original_bits = 0;
  std::uint64_t escaped_blocks = 0;
  std::uint64_t coded_blocks = 0;
};

/// Compresses a ternary scan stream. A trailing partial block is padded
/// with X (the decoder truncates at original_bits).
HuffmanResult huffman_encode(const bits::TritVector& input,
                             const HuffmanConfig& config = {});

/// Decompresses using the result's codebook.
bits::TritVector huffman_decode(const HuffmanResult& encoded);

/// Appends the selective-Huffman payload section that HuffmanCodec and the
/// BWT backend both carry: geometry (u32 block_bits, codebook_size, entry
/// count, escape_code, escape_len), the entries (u64 pattern, u32 code,
/// u32 code_len each), then the stream image.
void put_huffman_section(std::vector<std::uint8_t>& out, const HuffmanResult& coded);

/// Parses a put_huffman_section section that ends the payload into `coded`.
/// Returns "" or what is malformed. At most 2^16 entries, an escape length
/// up to 32 and code lengths 1..32 are checked before the codebook is
/// sized; the block_bits range is the caller's to check.
std::string get_huffman_section(bits::ByteCursor& cur, HuffmanResult& coded);

}  // namespace tdc::codec

#endif  // TDC_CODEC_HUFFMAN_H
