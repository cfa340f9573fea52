#ifndef TDC_LZW_STREAM_IO_H
#define TDC_LZW_STREAM_IO_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/error.h"
#include "lzw/decoder.h"
#include "lzw/encoder.h"

namespace tdc::lzw {

/// How a compressed image is serialized.
///
/// Two on-disk formats exist:
///
///  * `TDCLZW1` — the legacy format: bare little-endian header plus payload,
///    no integrity protection. Still written on request (golden-file
///    compatibility, minimal-overhead lab use) and always readable.
///  * `TDCLZW2` — the hardened container (the default): versioned header
///    with its own CRC32, a whole-payload CRC32, and optional chunked
///    framing (one CRC32 per `chunk_bytes` payload bytes) so a corrupted
///    download is localized to a chunk instead of poisoning the whole image.
///
/// TDCLZW2 byte layout (all integers little-endian; see
/// docs/ALGORITHMS.md §8 for the rationale):
///
///     offset size  field
///     0      8     magic "TDCLZW2\0"
///     8      4     format version (2)
///     12     4     dict_size        (N)
///     16     4     char_bits        (C_C)
///     20     4     entry_bits       (C_MDATA)
///     24     4     flags            (bit 0: variable_width)
///     28     8     original_bits
///     36     8     code_count
///     44     8     payload_bits
///     52     4     payload_crc32    (over the payload bytes)
///     56     4     chunk_bytes      (0 = unchunked)
///     60     4     chunk_count      (= ceil(payload_bytes / chunk_bytes))
///     64     4*n   chunk CRC32 table, one entry per chunk
///     64+4n  4     header_crc32     (over every byte before this field)
///     ...          payload bytes    (ceil(payload_bits / 8))
///
/// Format version 3 (multi-codec) keeps the same magic and fixed header but
/// reinterprets the payload as a sequence of self-contained chunk records,
/// each `{u8 codec_id, u8 flags, u16 reserved, u64 original_trits,
/// u32 payload_bytes, payload...}` (core/contracts.h `container_v3`). The
/// header's `chunk_count` is the record count, `chunk_bytes` carries the
/// encode-time chunk granularity in trits, `code_count` repeats the record
/// count, and the chunk CRC table holds one CRC32 per whole record. Codec
/// ids are opaque at this layer — `codec::decode_image` dispatches them.
struct ContainerOptions {
  std::uint32_t version = 2;      ///< 1 (legacy TDCLZW1) or 2 (TDCLZW2)
  std::uint32_t chunk_bytes = 4096;  ///< v2 chunk framing; 0 disables it
};

/// One self-contained chunk of a version-3 multi-codec image: which backend
/// compressed it, how many scan trits it expands to, and its wire bytes.
struct ChunkRecord {
  std::uint8_t codec_id = 0;
  std::uint64_t original_trits = 0;
  std::vector<std::uint8_t> payload;
};

/// What the reader learned about the container itself (surfaced by the CLI
/// `inspect` and `verify` subcommands).
struct ContainerInfo {
  std::uint32_t version = 1;
  std::uint32_t chunk_bytes = 0;
  std::uint32_t chunk_count = 0;
  std::uint64_t header_bytes = 0;   ///< container bytes before the payload
  std::uint64_t payload_bytes = 0;

  bool crc_protected() const { return version >= 2; }
};

/// A compressed test-data image as stored on disk: the configurator state
/// (LzwConfig — out-of-band, exactly like the paper's configurator block)
/// plus the packed code stream the tester downloads.
struct CompressedImage {
  LzwConfig config;
  std::uint64_t original_bits = 0;
  std::uint64_t code_count = 0;
  bits::BitWriter stream;
  ContainerInfo container;

  /// Version-3 images only: the parsed chunk records, in payload order.
  std::vector<ChunkRecord> chunks;

  /// True when the payload is a multi-codec record sequence that must be
  /// decoded through the codec registry (codec::decode_image) instead of
  /// the pure-LZW path below.
  bool multi_codec() const { return container.version >= 3; }

  /// Strict decode back into the fully specified scan stream; errors carry
  /// the failing code index and payload bit offset. Multi-codec images
  /// cannot be decoded at this layer (the codec registry lives above the
  /// LZW library) and report ConfigMismatch.
  Result<DecodeResult> try_decode() const {
    if (multi_codec()) {
      return Error{ErrorKind::ConfigMismatch,
                   "multi-codec image: decode through codec::decode_image"};
    }
    bits::BitReader reader(stream);
    return Decoder(config).try_decode_stream(reader, code_count, original_bits);
  }

  /// Throwing wrapper over try_decode().
  DecodeResult decode() const { return try_decode().value_or_throw(); }
};

/// Serializes an encoder result. Throws std::invalid_argument on unusable
/// options (unknown version, 0 < chunk_bytes < 64) or a configuration no
/// reader accepts (Error{ConfigMismatch}: C_MDATA above
/// LzwConfig::kMaxStoredEntryBits), and ContainerError on a stream write
/// failure.
void write_image(std::ostream& out, const EncodeResult& encoded,
                 const ContainerOptions& options = {});

/// Serializes a multi-codec image (format version 3): the LzwConfig rides
/// along as the configurator block for tools, `chunk_trits` records the
/// encode-time chunk granularity, and each record is CRC-framed whole.
/// `original_bits` must equal the sum of the records' original_trits.
/// Throws ContainerError on a stream write failure, DecodeError
/// (ContractViolation) on inconsistent arguments, and DecodeError
/// (ConfigMismatch) on a configurator block no reader accepts.
void write_image_v3(std::ostream& out, const LzwConfig& config,
                    std::uint64_t original_bits, std::uint32_t chunk_trits,
                    const std::vector<ChunkRecord>& chunks);

void write_image_v3_file(const std::string& path, const LzwConfig& config,
                         std::uint64_t original_bits, std::uint32_t chunk_trits,
                         const std::vector<ChunkRecord>& chunks);

/// Strict reader for both container versions: every field is bounds-checked,
/// every integrity check typed — TruncatedHeader, BadMagic,
/// UnsupportedVersion, HeaderCrcMismatch, ConfigMismatch, TruncatedPayload,
/// ChunkCrcMismatch (with the chunk index and byte range), and
/// PayloadCrcMismatch. Never exhibits UB on corrupt input. A header whose
/// C_MDATA exceeds LzwConfig::kMaxStoredEntryBits, or whose original_bits
/// exceeds what its code_count codes can decode to
/// (LzwConfig::max_decoded_bits), is a ConfigMismatch before any decoding.
Result<CompressedImage> try_read_image(std::istream& in);

/// Throwing wrapper over try_read_image (ContainerError / DecodeError).
CompressedImage read_image(std::istream& in);

void write_image_file(const std::string& path, const EncodeResult& encoded,
                      const ContainerOptions& options = {});
Result<CompressedImage> try_read_image_file(const std::string& path);
CompressedImage read_image_file(const std::string& path);

}  // namespace tdc::lzw

#endif  // TDC_LZW_STREAM_IO_H
