#ifndef TDC_LZW_DECODER_H
#define TDC_LZW_DECODER_H

#include <cstdint>

#include "bits/bitstream.h"
#include "bits/tritvector.h"
#include "core/error.h"
#include "lzw/config.h"
#include "lzw/telemetry.h"

namespace tdc::lzw {

/// Output of a decompression run.
struct DecodeResult {
  /// The reconstructed, fully specified scan stream, truncated to the
  /// original (unpadded) bit count.
  bits::TritVector bits;

  /// Codes defined in the dictionary at the end (including literals);
  /// equals the encoder's count, or exceeds it by one trailing entry
  /// (the decoder also learns from the final code).
  std::uint32_t dict_codes_used = 0;

  /// Hot-path telemetry: codes consumed, KwKwK hits, expansion-length
  /// histogram. Always collected (plain local increments, no locks);
  /// surfaced by `tdc_cli stats` on a container.
  DecoderTelemetry telemetry;
};

/// Software LZW decompressor (paper §4 / Fig. 4), including the classic
/// "code not yet defined" (KwKwK) special case and the same dictionary-limit
/// and entry-width freeze rules as the encoder, so the two dictionaries
/// evolve in lockstep. It runs the shared decode core (lzw/decode_core.h),
/// the same loop hw::DecompressorModel times, with telemetry as its
/// per-code observer.
///
/// Its one input is the packed code stream (EncodeResult::stream, or a
/// container's payload), in two entry forms: a strict `try_*` path
/// returning `Result<DecodeResult>` with full position context (code
/// index, payload bit offset) on corrupt input, and a thin throwing wrapper
/// preserving the historical std::invalid_argument contract. The strict
/// path is bounds-checked throughout — no read past the end of the code
/// stream, no UB on any input.
class Decoder {
 public:
  explicit Decoder(const LzwConfig& config) : config_(config) { config_.validate(); }

  /// Strict decode of `code_count` codes from a tester bit stream — fixed
  /// C_E-bit codes, or growing-width codes when config.variable_width is set
  /// (the width follows the dictionary fill level, in lockstep with the
  /// encoder). `original_bits` trims the X padding the encoder added to the
  /// final character. On failure the Error carries the offending code index
  /// and the payload bit offset at which it started (UndefinedCode,
  /// CodeStreamTruncated), or the decoded versus expected bit counts
  /// (StreamTooShort).
  Result<DecodeResult> try_decode_stream(bits::BitReader& reader,
                                         std::size_t code_count,
                                         std::uint64_t original_bits) const;

  /// Throwing wrapper over try_decode_stream (DecodeError, i.e.
  /// std::invalid_argument, on a corrupt stream).
  DecodeResult decode_stream(bits::BitReader& reader, std::size_t code_count,
                             std::uint64_t original_bits) const {
    return try_decode_stream(reader, code_count, original_bits).value_or_throw();
  }

 private:
  LzwConfig config_;
};

}  // namespace tdc::lzw

#endif  // TDC_LZW_DECODER_H
