#ifndef TDC_LZW_TELEMETRY_H
#define TDC_LZW_TELEMETRY_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace tdc::lzw {

/// Hot-loop front end of a LocalHistogram: a sample below 64 is one
/// increment of a plain array, a larger (exotic) one goes straight to the
/// histogram, and fold() adds each counted value with one record_repeated.
/// The histogram ends exactly as if every sample had been recorded (its
/// accumulate operations commute), without a full histogram add per code
/// on the encoder's emit path or the decode core's per-code path.
class SampleCounts {
 public:
  explicit SampleCounts(obs::LocalHistogram& target) : target_(target) {}

  void record(std::uint64_t value) {
    if (value < counts_.size()) {
      ++counts_[value];
    } else {
      target_.record(value);
    }
  }

  /// Moves the counted samples into the histogram.
  void fold() {
    for (std::size_t v = 0; v < counts_.size(); ++v) {
      target_.record_repeated(v, counts_[v]);
    }
    counts_ = {};
  }

 private:
  obs::LocalHistogram& target_;
  std::array<std::uint64_t, 64> counts_{};
};

/// Per-stream encoder telemetry, accumulated inline in the compression loop.
/// Every field is a plain integer or an unsynchronized obs::LocalHistogram —
/// a handful of register operations per character, always on, cheap enough
/// that the hot path carries it unconditionally (micro_codec pins the
/// overhead under 2%). These numbers make the paper's aggregate ratios
/// explainable: how the dynamic X-assignment (§5) actually bound the don't
/// cares, how deep matches ran, and which dictionary path answered each
/// character.
struct EncoderTelemetry {
  /// Dictionary child lookups answered by the exact lookup (a fully
  /// specified character: the slab match kernel with a full care mask).
  std::uint64_t probes_fast = 0;

  /// Dictionary child lookups that ran the tie-break's pick (the character
  /// carried X bits): one early-exit scan of the policy-ordered child slab,
  /// or none when Lookahead's carried chain decides it.
  std::uint64_t probes_scan = 0;

  /// Characters that extended the running match (a compatible child existed).
  std::uint64_t match_extensions = 0;

  /// X bits in consumed characters, total (Dynamic mode only; pre-fill modes
  /// erase the X bits before the loop and report x_bits_prefilled instead).
  std::uint64_t x_bits_input = 0;

  /// X bits bound by following a dictionary child — the paper's dynamic
  /// assignment keeping the match alive (§5).
  std::uint64_t x_bits_matched = 0;

  /// X bits bound to zero when a match ended (or began) and the character
  /// seeded a new buffer / dictionary entry.
  std::uint64_t x_bits_zeroed = 0;

  /// X bits resolved up front by a pre-fill XAssignMode (zero for Dynamic).
  std::uint64_t x_bits_prefilled = 0;

  /// Dictionary entries created.
  std::uint64_t entries_added = 0;

  /// 1 when the dictionary filled (froze) during the run, else 0 — counted
  /// as an event so merged/aggregated telemetry sums the frozen streams.
  std::uint64_t dict_full_events = 0;

  /// Expansion length, in characters, of each emitted code.
  obs::LocalHistogram match_chars;

  /// Bit width of each emitted code (constant unless variable_width).
  obs::LocalHistogram code_width_bits;

  /// Deterministic JSON object (sorted fixed keys, no timestamps).
  std::string to_json() const;
};

/// Per-stream decoder telemetry: what the expansion side saw.
struct DecoderTelemetry {
  std::uint64_t codes_consumed = 0;

  /// Codes that hit the KwKwK special case (code not yet defined).
  std::uint64_t kwkwk_codes = 0;

  /// Dictionary entries the decoder learned.
  std::uint64_t entries_added = 0;

  /// Expansion length, in characters, of each consumed code.
  obs::LocalHistogram expansion_chars;

  std::string to_json() const;
};

}  // namespace tdc::lzw

#endif  // TDC_LZW_TELEMETRY_H
