#include "hw/decompressor_rtl.h"

#include <algorithm>
#include <bit>

#include "core/contracts.h"
#include "core/error.h"
#include "lzw/dictionary.h"

namespace tdc::hw {

namespace {

enum FsmState : std::uint64_t {
  kReceive = 0,
  kDecode = 1,
  kShift = 2,
};

[[noreturn]] void fail(ErrorKind kind, std::string message, std::size_t code_index,
                       std::size_t bit_offset) {
  Error err{kind, std::move(message)};
  err.code_index = static_cast<std::int64_t>(code_index);
  err.bit_offset = static_cast<std::int64_t>(bit_offset);
  err.raise();  // DecodeError, preserving the std::invalid_argument contract
}

}  // namespace

HwRunResult DecompressorRtl::run(const lzw::EncodeResult& encoded,
                                 VcdWriter* vcd) const {
  TDC_REQUIRE(!config_.pipelined,
              "DecompressorRtl: per-cycle model implements the serial architecture");
  const lzw::LzwConfig& lc = config_.lzw;
  const std::uint64_t k = config_.clock_ratio;

  lzw::Dictionary dict(lc);
  bits::BitReader reader(encoded.stream);

  HwRunResult result;
  result.uncompressed_tester_cycles = encoded.original_bits;

  // ---- VCD signal set (microarchitectural view).
  std::size_t sig_state = 0, sig_inbits = 0, sig_code = 0, sig_buffer = 0,
              sig_scan = 0, sig_valid = 0, sig_we = 0, sig_next = 0,
              sig_shift_left = 0;
  if (vcd != nullptr) {
    sig_state = vcd->add_signal("fsm_state", 2);
    sig_inbits = vcd->add_signal("input_bits", 6);
    sig_code = vcd->add_signal("code_reg", std::max(2u, lc.code_bits()));
    sig_buffer = vcd->add_signal("cmlast_buffer", std::max(2u, lc.code_bits()));
    sig_scan = vcd->add_signal("scan_out", 1);
    sig_valid = vcd->add_signal("scan_valid", 1);
    sig_we = vcd->add_signal("mem_we", 1);
    sig_next = vcd->add_signal("dict_next_code", std::max(2u, lc.code_bits() + 1));
    sig_shift_left = vcd->add_signal("shift_remaining", 16);
    vcd->begin();
  }

  std::uint64_t cycle = 0;
  std::uint32_t prev = lzw::kNoCode;
  std::uint64_t emitted_bits = 0;

  auto tick = [&](std::uint64_t state, std::uint64_t inbits, std::uint32_t code,
                  std::uint64_t shift_left, bool scan_bit, bool scan_valid,
                  bool mem_we) {
    if (vcd != nullptr) {
      vcd->advance(cycle);
      vcd->change(sig_state, state);
      vcd->change(sig_inbits, inbits);
      if (code != lzw::kNoCode) vcd->change(sig_code, code);
      vcd->change(sig_buffer, prev == lzw::kNoCode ? 0 : prev);
      vcd->change(sig_scan, scan_bit ? 1 : 0);
      vcd->change(sig_valid, scan_valid ? 1 : 0);
      vcd->change(sig_we, mem_we ? 1 : 0);
      vcd->change(sig_next, dict.full() ? 0 : dict.next_code());
      vcd->change(sig_shift_left, shift_left);
    }
    ++cycle;
  };

  const std::size_t code_count = encoded.code_count;
  for (std::size_t idx = 0; idx < code_count; ++idx) {
    const std::uint32_t width =
        lc.variable_width
            ? std::min(static_cast<std::uint32_t>(std::bit_width(dict.size())),
                       lc.code_bits())
            : lc.code_bits();

    // ---- RECEIVE: one tester bit lands every k internal cycles. Every
    // error about this code reports its first bit.
    const std::size_t code_start = reader.position();
    if (reader.remaining() < width) {
      fail(ErrorKind::CodeStreamTruncated,
           "rtl: tester image ends inside code " + std::to_string(idx) + " of " +
               std::to_string(code_count),
           idx, code_start);
    }
    std::uint32_t got = 0;
    std::uint32_t code_reg = 0;
    for (std::uint32_t b = 0; b < width; ++b) {
      for (std::uint64_t sub = 0; sub + 1 < k; ++sub) {
        tick(kReceive, got, lzw::kNoCode, 0, false, false, false);
      }
      code_reg = (code_reg << 1) | (reader.read_bit() ? 1u : 0u);
      ++got;
      tick(kReceive, got, lzw::kNoCode, 0, false, false, false);
    }
    result.input_stall_cycles += width * k;
    const std::uint32_t code = code_reg;

    // ---- DECODE: literal pass-through / RAM read / C_MLAST (KwKwK).
    std::vector<std::uint32_t> entry;
    std::uint32_t decode_cycles;
    if (code < lc.first_code()) {
      if (!dict.defined(code)) {
        fail(ErrorKind::UndefinedCode, "rtl: literal code out of range", idx, code_start);
      }
      entry = dict.expand(code);
      decode_cycles = config_.literal_load_cycles;
    } else if (dict.defined(code)) {
      entry = dict.expand(code);
      decode_cycles = config_.mem_read_cycles;
    } else if (prev != lzw::kNoCode && code == dict.next_code() &&
               dict.extendable(prev) &&
               dict.child(prev, dict.first_char(prev)) == lzw::kNoCode) {
      // C_MLAST path is only legal while (prev, first_char) is still being
      // created; an existing child means the code is corrupt.
      entry = dict.expand(prev);
      entry.push_back(dict.first_char(prev));
      decode_cycles = config_.literal_load_cycles;
    } else {
      fail(ErrorKind::UndefinedCode,
           "rtl: code value " + std::to_string(code) + " undefined in stream", idx,
           code_start);
    }
    for (std::uint32_t d = 0; d < decode_cycles; ++d) {
      tick(kDecode, width, code, 0, false, false, false);
    }
    result.mem_cycles += decode_cycles;

    // ---- Dictionary update (overlaps the shift).
    std::uint64_t write_left = 0;
    if (prev != lzw::kNoCode && dict.child(prev, entry.front()) == lzw::kNoCode) {
      if (dict.add(prev, entry.front()) != lzw::kNoCode) {
        write_left = config_.mem_write_cycles;
      }
    }
    prev = code;

    // ---- SHIFT: one scan bit per cycle; memory write in parallel.
    const std::uint64_t shift = static_cast<std::uint64_t>(entry.size()) * lc.char_bits;
    result.shift_cycles += shift;
    const std::uint64_t busy = std::max(shift, write_left);
    std::size_t char_idx = 0;
    std::uint32_t bit_idx = lc.char_bits;
    for (std::uint64_t s = 0; s < busy; ++s) {
      bool scan_bit = false;
      bool scan_valid = false;
      if (s < shift) {
        if (bit_idx == 0) {
          ++char_idx;
          bit_idx = lc.char_bits;
        }
        --bit_idx;
        scan_bit = ((entry[char_idx] >> bit_idx) & 1u) != 0;
        scan_valid = emitted_bits < encoded.original_bits;
        if (scan_valid) {
          result.scan_bits.push_back(scan_bit ? bits::Trit::One : bits::Trit::Zero);
          ++emitted_bits;
        }
      }
      const bool we = write_left > 0;
      if (write_left > 0) --write_left;
      tick(kShift, 0, code, busy - s, scan_bit, scan_valid, we);
    }
  }

  if (emitted_bits < encoded.original_bits) {
    fail(ErrorKind::StreamTooShort,
         "rtl: produced " + std::to_string(emitted_bits) + " of " +
             std::to_string(encoded.original_bits) + " scan bits",
         code_count, reader.position());
  }
  result.internal_cycles = cycle;
  return result;
}

}  // namespace tdc::hw
