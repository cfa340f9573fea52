#ifndef TDC_CODEC_CODEC_H
#define TDC_CODEC_CODEC_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bits/tritvector.h"
#include "codec/huffman.h"
#include "codec/lfsr_reseed.h"
#include "codec/lz77.h"
#include "codec/rle.h"
#include "core/error.h"
#include "lzw/encoder.h"

namespace tdc::codec {

/// The paper's "Test Compression Ratio":
///   ratio = (1 - compressed_bits / original_bits) * 100 %.
inline double ratio_percent(std::uint64_t original_bits,
                            std::uint64_t compressed_bits) {
  if (original_bits == 0) return 0.0;
  return (1.0 - static_cast<double>(compressed_bits) /
                    static_cast<double>(original_bits)) *
         100.0;
}

/// Size accounting shared by every compression scheme in the comparison.
/// `compressed_bits` follows the paper's convention: the tester-download
/// stream only, side information (codebooks, configurator state) excluded —
/// the honest wire size including side info is CompressedChunk::payload.
struct CodecStats {
  std::string codec;
  std::uint64_t original_bits = 0;
  std::uint64_t compressed_bits = 0;

  double ratio_percent() const {
    return codec::ratio_percent(original_bits, compressed_bits);
  }
};

/// Stable one-byte wire identifiers, recorded verbatim in every version-3
/// container chunk record. Append-only: renumbering breaks every archived
/// multi-codec image.
enum class CodecId : std::uint8_t {
  Lzw = 1,
  Lz77 = 2,
  Rle = 3,
  Huffman = 4,
  LfsrReseed = 5,
  Bwt = 6,
};

/// The stable lower-case wire/CLI token ("lzw", "bwt", ...).
const char* to_string(CodecId id);

/// Parses a wire/CLI token; InvalidInput lists the known tokens.
Result<CodecId> parse_codec_id(const std::string& token);

/// Comma-separated list of every registered token (diagnostics).
std::string known_codec_names();

/// What a backend can promise to the per-chunk selector.
struct CodecCaps {
  /// Consumes ternary input natively (X bits exploited, not just filled).
  bool handles_x = true;
  /// estimate_bits() is exact, not a closed-form model.
  bool exact_estimate = false;
  /// Chunk payloads decode independently of every other chunk.
  bool streaming_safe = true;
};

/// Single-pass summary of a chunk, feeding every backend's cost model. The
/// selector computes it once and asks each candidate for an estimate, so a
/// backend must never need the chunk itself to produce one.
struct ChunkFeatures {
  std::uint64_t trits = 0;  ///< chunk length
  std::uint64_t care = 0;   ///< specified (non-X) trits
  std::uint64_t ones = 0;   ///< specified 1s
  std::uint64_t runs = 0;   ///< runs after repeat-fill (0 for an empty chunk)

  double x_density() const {
    return trits == 0 ? 0.0
                      : 1.0 - static_cast<double>(care) / static_cast<double>(trits);
  }

  /// Shannon entropy (bits/bit) of the specified values.
  double care_entropy() const;
};

/// Word-parallel summary of the chunk (popcounts plus one repeat-fill
/// pass, O(words)); deterministic.
ChunkFeatures analyze_chunk(const bits::TritVector& chunk);

/// One compressed chunk: the paper-convention size accounting plus the
/// self-contained wire payload. The payload carries everything the decoder
/// needs (per-codec configuration, codebooks, bit counts), so any registry
/// instance of the same codec id can expand it.
struct CompressedChunk {
  CodecStats stats;
  std::vector<std::uint8_t> payload;
};

/// The unified compression-backend interface, chunk-aware (v2): every
/// scheme in the comparison — don't-care-aware LZW, LZ77, the run-length
/// family, selective Huffman, LFSR reseeding, BWT+MTF+Huffman — declares
/// its capabilities, prices a chunk via `estimate_bits`, and converts
/// chunks to and from self-contained wire payloads. Benches and tools
/// iterate a registry instead of hand-calling per-codec free functions;
/// the engine's encode stage picks a backend per chunk.
class Codec {
 public:
  virtual ~Codec() = default;

  /// Human-readable backend name, also used as the stats/table label.
  virtual std::string name() const = 0;

  /// Wire identity recorded in the container's chunk records.
  virtual CodecId id() const = 0;

  virtual CodecCaps caps() const = 0;

  /// Cheap deterministic prediction of this backend's compressed_bits for a
  /// chunk with the given features — the auto-selector's cost model. A
  /// model, not a promise, unless caps().exact_estimate.
  virtual std::uint64_t estimate_bits(const ChunkFeatures& features) const = 0;

  /// Compresses one chunk into a self-contained payload. Configuration
  /// problems and internal failures surface as typed Errors, never UB.
  virtual Result<CompressedChunk> compress_chunk(const bits::TritVector& chunk) const = 0;

  /// Expands a payload back into exactly `trit_count` fully specified bits.
  /// The payload is untrusted input: every field is bounds-checked and
  /// damage reports a typed Error.
  virtual Result<bits::TritVector> decompress_chunk(
      const std::vector<std::uint8_t>& payload, std::uint64_t trit_count) const = 0;

  /// --- whole-buffer conveniences (one chunk spanning the input) ---------

  /// Compresses `input` and reports size accounting.
  Result<CodecStats> compress(const bits::TritVector& input) const;

  /// Compress + decompress through the wire payload + verify: the expansion
  /// must be fully specified and cover every care bit of the ternary input.
  /// Returns the same stats as compress() when the round trip holds, a
  /// ConfigMismatch Error when the backend's own expansion violates the
  /// input — the invariant the whole repository is built around.
  Result<CodecStats> round_trip(const bits::TritVector& input) const;
};

/// --- Backend factories -----------------------------------------------

/// The paper's LZW with dynamic don't-care assignment. `label` overrides the
/// default "LZW" name (used when one table carries several parameterizations).
std::unique_ptr<Codec> make_lzw_codec(const lzw::LzwConfig& config,
                                      lzw::Tiebreak tiebreak = lzw::Tiebreak::First,
                                      std::string label = "LZW");

std::unique_ptr<Codec> make_lz77_codec(const Lz77Config& config = {},
                                       std::string label = "LZ77");

/// Alternating run-length coding at a fixed parameterization.
std::unique_ptr<Codec> make_alternating_rle_codec(const RleConfig& config = {},
                                                  std::string label = "RLE");

/// Alternating run-length coding with the per-input parameter grid search
/// the baseline papers apply.
std::unique_ptr<Codec> make_best_rle_codec(std::string label = "RLE (tuned)");

std::unique_ptr<Codec> make_huffman_codec(const HuffmanConfig& config = {},
                                          std::string label = "Sel-Huffman");

/// LFSR reseeding. The flat scan stream is cut into `width`-bit cubes (the
/// per-pattern scan load); a trailing partial cube is padded with X.
std::unique_ptr<Codec> make_lfsr_reseed_codec(std::uint32_t width,
                                              const LfsrReseedConfig& config = {},
                                              std::string label = "LFSR-reseed");

/// BWT + move-to-front + selective Huffman over the packed (repeat-filled)
/// byte stream — the text/binary generalist. See codec/bwt.h.
std::unique_ptr<Codec> make_bwt_codec(std::string label = "BWT+MTF+Huf");

/// Registry of every backend at software-friendly default parameters —
/// the "what else could the tester run" sweep. `pattern_width` parameterizes
/// the LFSR-reseed backend (0 omits it: reseeding is per-pattern and
/// meaningless on an unstructured stream).
std::vector<std::unique_ptr<Codec>> default_registry(std::uint32_t pattern_width = 0);

/// Canonical decode-side registry: one long-lived instance per wire id at
/// wire-default parameters. Payloads are self-contained, so these instances
/// can expand any chunk regardless of the encode-time configuration.
/// Returns nullptr for an unregistered id.
const Codec* codec_for_id(std::uint8_t id);

/// codec_for_id via the wire/CLI token; nullptr for an unknown token.
const Codec* codec_for_name(const std::string& token);

}  // namespace tdc::codec

#endif  // TDC_CODEC_CODEC_H
