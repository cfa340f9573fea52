#ifndef TDC_HW_DECOMPRESSOR_H
#define TDC_HW_DECOMPRESSOR_H

#include <cstdint>
#include <vector>

#include "bits/bitstream.h"
#include "bits/tritvector.h"
#include "core/error.h"
#include "hw/memory.h"
#include "lzw/config.h"
#include "lzw/encoder.h"

namespace tdc::hw {

/// Timing parameters of the on-chip decompressor (paper Fig. 5).
struct HwConfig {
  lzw::LzwConfig lzw;

  /// Internal-clock to tester-clock ratio k: the tester delivers one
  /// compressed bit per tester cycle = per k internal cycles. Paper Table 2
  /// evaluates k in {4, 8, 10}.
  std::uint32_t clock_ratio = 10;

  /// Internal cycles to read a dictionary entry from the embedded RAM.
  std::uint32_t mem_read_cycles = 1;

  /// Internal cycles to latch a literal code into the output shifter.
  std::uint32_t literal_load_cycles = 1;

  /// Internal cycles to write a new dictionary entry. The write overlaps
  /// output shifting (the expansion is already latched), so it only costs
  /// time when it outlasts the shift — which it never does for real
  /// geometries; it is modeled anyway for fidelity.
  std::uint32_t mem_write_cycles = 1;

  /// false (default, the paper's architecture): the FSM receives a full
  /// C_E-bit code and only then decodes and shifts it out — input and
  /// output do not overlap. This reproduces the paper's Table 2/6 numbers
  /// (~1 - ratio_c - 1/k). true: the input shifter receives the next code
  /// while the current one shifts out (a one-code pipeline) — the
  /// extension evaluated by bench/ablation_hw_pipeline.
  bool pipelined = false;

  /// Raises Error{ConfigMismatch} (a std::invalid_argument) unless the LZW
  /// configuration is realizable and clock_ratio is at least 1: the tester
  /// cycle count divides by it.
  void validate() const {
    lzw.validate();
    if (clock_ratio == 0) {
      Error{ErrorKind::ConfigMismatch, "HwConfig: clock_ratio must be at least 1"}.raise();
    }
  }
};

/// Outcome of one simulated download-and-decompress run.
struct HwRunResult {
  /// Scan-chain bit stream produced by the model (fully specified,
  /// truncated to the original test-set length).
  bits::TritVector scan_bits;

  /// Total internal-clock cycles from first tester bit to last scan bit.
  std::uint64_t internal_cycles = 0;

  /// Cycles the FSM spent stalled waiting for tester input (input-bound).
  std::uint64_t input_stall_cycles = 0;

  /// Cycles spent shifting scan output (output-bound component).
  std::uint64_t shift_cycles = 0;

  /// Cycles spent on dictionary reads / literal loads.
  std::uint64_t mem_cycles = 0;

  /// Baseline: tester cycles to shift the *uncompressed* test set directly.
  std::uint64_t uncompressed_tester_cycles = 0;

  /// Tester cycles consumed by the compressed download (ceil of internal/k).
  std::uint64_t tester_cycles(std::uint32_t clock_ratio) const {
    return (internal_cycles + clock_ratio - 1) / clock_ratio;
  }

  /// The paper's "download performance improvement" (Tables 2 and 6):
  /// 1 - compressed_time / uncompressed_time, in percent.
  double improvement_percent(std::uint32_t clock_ratio) const {
    if (uncompressed_tester_cycles == 0) return 0.0;
    return (1.0 - static_cast<double>(tester_cycles(clock_ratio)) /
                      static_cast<double>(uncompressed_tester_cycles)) *
           100.0;
  }
};

/// Cycle-accurate model of the paper's Fig. 5 LZW decompressor.
///
/// Architecture modeled:
///  * an input shifter receiving one compressed bit per k internal cycles
///    from the tester (flow-controlled; holding the tester costs nothing
///    extra because total time is bounded below by the slower side),
///  * an FSM that, per C_E-bit code, either passes the literal to the
///    output shifter or reads the code's full expansion from the dictionary
///    RAM (single read — this is the paper's reason for bounding entries
///    to the memory word width),
///  * a C_D output shifter feeding the scan chain one bit per internal
///    cycle,
///  * a dictionary write of (previous expansion + first new character),
///    overlapped with output shifting,
///  * the KwKwK case served from the C_MLAST register without a RAM read.
class DecompressorModel {
 public:
  explicit DecompressorModel(const HwConfig& config) : config_(config) {
    config_.validate();
  }

  const HwConfig& config() const { return config_; }

  /// Strict run of the model over an encoder's output. `encoded.stream` is
  /// the tester image; its `encoded.code_count` codes run through the
  /// decode core lzw::Decoder shares (lzw/decode_core.h), and the model
  /// times each step. On a corrupt stream the Error carries the failing
  /// code index and the payload bit offset; every read is bounds-checked.
  Result<HwRunResult> try_run(const lzw::EncodeResult& encoded) const;

  /// Throwing wrapper over try_run (DecodeError, i.e. std::invalid_argument,
  /// on a corrupt stream).
  HwRunResult run(const lzw::EncodeResult& encoded) const {
    return try_run(encoded).value_or_throw();
  }

  /// Memory model for this configuration.
  DictionaryMemoryModel memory() const { return DictionaryMemoryModel(config_.lzw); }

 private:
  HwConfig config_;
};

}  // namespace tdc::hw

#endif  // TDC_HW_DECOMPRESSOR_H
