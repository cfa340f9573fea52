#ifndef TDC_LZW_ENCODER_H
#define TDC_LZW_ENCODER_H

#include <cstdint>
#include <functional>
#include <vector>

#include "bits/bitstream.h"
#include "bits/tritvector.h"
#include "lzw/config.h"
#include "lzw/dictionary.h"
#include "lzw/telemetry.h"

namespace tdc::lzw {

/// How don't-care bits in the input are resolved.
///
/// `Dynamic` is the paper's contribution (§5): X bits are bound *while* the
/// LZW match is running, always choosing a value that keeps the current
/// (Buffer, Input) pair inside the dictionary. The other modes are the
/// "pre-processing" strawmen the paper reports as yielding only 40–60 %:
/// the input is made fully specified first, then plain LZW runs over it.
enum class XAssignMode {
  Dynamic,     ///< dynamic sliding-window assignment (the paper's method)
  ZeroFill,    ///< X -> 0, then plain LZW
  OneFill,     ///< X -> 1, then plain LZW
  RepeatFill,  ///< X -> previous care bit, then plain LZW
  RandomFill,  ///< X -> coin flip, then plain LZW
};

/// Tie-break policy when several dictionary children are compatible with a
/// ternary input character. The paper leaves this open; the ablation bench
/// compares the options. The encoder's dictionary keeps each child slab in
/// its rule's preference order, so LowestChar and MostChildren take the
/// first compatible lane like First, MostRecent the last one, and
/// Lookahead stops at the first child reaching the top score.
enum class Tiebreak {
  First,         ///< first child in insertion order (oldest entry)
  LowestChar,    ///< numerically smallest compatible character
  MostRecent,    ///< newest entry (highest code)
  MostChildren,  ///< child with the largest own child list (densest subtree)
  Lookahead,     ///< child whose subtree keeps matching the next input
                 ///< characters furthest (depth-2 greedy lookahead)
};

/// Everything the compression run produces: the code stream, the packed
/// tester bit stream, and the statistics the paper's tables report.
struct EncodeResult {
  LzwConfig config;

  /// Emitted LZW codes, in order.
  std::vector<std::uint32_t> codes;

  /// Expansion length (in characters) of each emitted code; drives the
  /// cycle-accurate decompressor model.
  std::vector<std::uint32_t> code_lengths;

  /// Codes packed C_E bits each, MSB first — the tester download image.
  bits::BitWriter stream;

  /// Unpadded input length in bits (scan data to deliver).
  std::uint64_t original_bits = 0;

  /// Number of C_C-bit characters consumed (includes X padding of the tail).
  std::uint64_t input_chars = 0;

  /// Codes defined in the dictionary at the end (including literals).
  std::uint32_t dict_codes_used = 0;

  /// Longest dictionary entry created, in bits (<= C_MDATA by construction).
  std::uint64_t longest_entry_bits = 0;

  /// Longest single emitted match, in bits.
  std::uint64_t longest_match_bits = 0;

  /// Hot-path telemetry: dictionary probe mix, X-bit binding accounting,
  /// match-length and code-width histograms. Always collected (plain local
  /// increments, no locks); surfaced by `tdc_cli stats` and the benches.
  EncoderTelemetry telemetry;

  /// Compressed size in bits (#codes * C_E for fixed-width codes; the
  /// exact packed size when config.variable_width is set).
  std::uint64_t compressed_bits() const { return stream.bit_count(); }

  /// The paper's "Test Compression Ratio": (1 - compressed/original) * 100.
  /// Negative when the stream expands (degenerate configurations).
  double ratio_percent() const {
    if (original_bits == 0) return 0.0;
    return (1.0 - static_cast<double>(compressed_bits()) /
                      static_cast<double>(original_bits)) *
           100.0;
  }
};

/// One step of the compression loop, reported to an observer — enough to
/// print the paper's Fig. 3 walkthrough table from the live encoder.
struct EncoderStep {
  std::uint64_t char_index = 0;   ///< index of the consumed input character
  std::uint64_t char_value = 0;   ///< its bits (X read as 0)
  std::uint64_t char_care = 0;    ///< mask of specified bits
  std::uint32_t buffer_before = kNoCode;
  std::uint32_t buffer_after = kNoCode;
  std::uint32_t emitted = kNoCode;    ///< code written to Output, if any
  std::uint32_t new_entry = kNoCode;  ///< dictionary code created, if any
};
using StepObserver = std::function<void(const EncoderStep&)>;

/// The LZW compressor with dynamic don't-care assignment.
///
/// Operates on a ternary bit stream (the serialized scan-test set), consuming
/// C_C bits per character from a one-pass CharCursor. A trailing partial
/// character is padded with X; the decompressor's surplus output bits are
/// simply not shifted into the scan chain.
///
/// A fully specified character takes the exact lookup (Dictionary::child);
/// a character with X bits takes the tie-break's pick, one early-exit scan
/// of the current code's child slab. The loop is compiled once per
/// Tiebreak, and the rule fixes the SlabOrder of the encoder's dictionary.
class Encoder {
 public:
  explicit Encoder(const LzwConfig& config, Tiebreak tiebreak = Tiebreak::First)
      : config_(config), tiebreak_(tiebreak) {
    config_.validate();
  }

  /// Compresses `input`. `rng_seed` only matters for XAssignMode::RandomFill.
  /// `observer`, when set, receives one EncoderStep per consumed character
  /// (plus a final flush step).
  EncodeResult encode(const bits::TritVector& input,
                      XAssignMode mode = XAssignMode::Dynamic,
                      std::uint64_t rng_seed = 1,
                      const StepObserver& observer = {}) const;

 private:
  LzwConfig config_;
  Tiebreak tiebreak_;
};

}  // namespace tdc::lzw

#endif  // TDC_LZW_ENCODER_H
