#include "hw/decompressor.h"

#include <algorithm>
#include <utility>

#include "lzw/decode_core.h"

namespace tdc::hw {

Result<HwRunResult> DecompressorModel::try_run(const lzw::EncodeResult& encoded) const {
  const std::uint64_t k = config_.clock_ratio;
  const std::uint64_t cc = config_.lzw.char_bits;

  HwRunResult result;
  result.uncompressed_tester_cycles = encoded.original_bits;

  // `t` is the current internal-clock time. In pipelined mode, compressed
  // bit b (0-based) has arrived once t >= (b+1)*k (the tester streams one
  // bit per tester cycle into the input shifter while the FSM works). In
  // the paper's serial architecture the FSM spends C_E tester cycles
  // receiving each code before decoding it.
  std::uint64_t t = 0;
  std::uint64_t bits_consumed = 0;

  // The decode core serves every code (one block copy per dictionary read)
  // and keeps the dictionary in lockstep with the encoder; the model adds
  // only the cycle arithmetic of each step.
  bits::BitReader reader(encoded.stream);
  lzw::StreamCodes codes{.reader = reader};
  Result<lzw::DecodeResult> decoded = lzw::decode_codes(
      config_.lzw, codes, encoded.codes.size(), encoded.original_bits,
      [&](const lzw::CodeStep& step) {
        // --- Input: wait until the full code has arrived (C_E bits, or the
        // current dictionary-fill width in variable-width mode).
        bits_consumed += step.width;
        if (config_.pipelined) {
          const std::uint64_t arrival = bits_consumed * k;
          if (arrival > t) {
            result.input_stall_cycles += arrival - t;
            t = arrival;
          }
        } else {
          result.input_stall_cycles += step.width * k;
          t += step.width * k;
        }

        // --- Decode: a RAM read for a dictionary entry; a literal, or the
        // KwKwK expansion held in the C_MLAST register, needs none.
        const std::uint64_t decode_cycles = step.kind == lzw::CodeKind::Entry
                                                ? config_.mem_read_cycles
                                                : config_.literal_load_cycles;
        result.mem_cycles += decode_cycles;
        t += decode_cycles;

        // --- Output: shift chars*C_C bits into the scan chain at one bit
        // per internal cycle; the new entry's RAM write happens under it.
        const std::uint64_t shift = step.chars * cc;
        const std::uint64_t write_cycles = step.added ? config_.mem_write_cycles : 0;
        result.shift_cycles += shift;
        t += std::max(shift, write_cycles);
      });
  if (!decoded.ok()) return decoded.error();
  result.scan_bits = std::move(decoded).take().bits;
  result.internal_cycles = t;
  return result;
}

}  // namespace tdc::hw
