#ifndef TDC_HW_DECOMPRESSOR_RTL_H
#define TDC_HW_DECOMPRESSOR_RTL_H

#include "hw/decompressor.h"
#include "hw/vcd.h"

namespace tdc::hw {

/// Cycle-stepped ("RTL-style") model of the Fig. 5 decompressor: explicit
/// registers — input shifter, code register, C_MLAST buffer, output
/// shifter, write countdown — advanced one internal-clock cycle at a time
/// through the serial FSM (RECEIVE -> DECODE/MEM_READ -> SHIFT, with the
/// dictionary write overlapping the shift).
///
/// It computes the same totals as DecompressorModel's event-based run (a
/// gtest asserts cycle-exact agreement) but exposes the per-cycle signal
/// activity, optionally dumped as a VCD waveform for GTKWave.
class DecompressorRtl {
 public:
  explicit DecompressorRtl(const HwConfig& config) : config_(config) {
    config_.validate();
  }

  const HwConfig& config() const { return config_; }

  /// Runs cycle by cycle. When `vcd` is given, declares its signals,
  /// begins the dump, and records every cycle.
  HwRunResult run(const lzw::EncodeResult& encoded, VcdWriter* vcd = nullptr) const;

 private:
  HwConfig config_;
};

}  // namespace tdc::hw

#endif  // TDC_HW_DECOMPRESSOR_RTL_H
