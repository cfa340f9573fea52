// Code lists for tests. An LZW code sequence exists only as a packed stream
// (EncodeResult::stream), so a test that names codes one by one goes
// through one of two helpers:
//
//   * encode_traced — an encode plus its emitted codes and their expansion
//     lengths, read from the encoder's StepObserver (EncoderStep::emitted);
//   * pack_codes — a hand-written code list packed at C_E bits per code,
//     MSB first: the fixed-width stream every decoder reads.
#ifndef TDC_TESTS_CODE_LISTS_H
#define TDC_TESTS_CODE_LISTS_H

#include <cstdint>
#include <vector>

#include "bits/bitstream.h"
#include "bits/tritvector.h"
#include "lzw/config.h"
#include "lzw/dictionary.h"
#include "lzw/encoder.h"

namespace tdc::code_lists {

/// An encode with the code sequence its stream holds.
struct TracedEncode {
  lzw::EncodeResult result;
  std::vector<std::uint32_t> codes;    ///< emitted codes, in order
  std::vector<std::uint32_t> lengths;  ///< each code's expansion, in characters
};

/// Encodes `input` and records every EncoderStep::emitted. A code emitted at
/// character i ends the match that began where the previous one ended, so
/// its length is the distance between the two emit steps' char_index (the
/// final flush step sits at input_chars).
inline TracedEncode encode_traced(const lzw::Encoder& encoder, const bits::TritVector& input,
                                  lzw::XAssignMode mode = lzw::XAssignMode::Dynamic,
                                  std::uint64_t rng_seed = 1) {
  TracedEncode traced;
  std::uint64_t match_start = 0;
  traced.result = encoder.encode(input, mode, rng_seed, [&](const lzw::EncoderStep& step) {
    if (step.emitted == lzw::kNoCode) return;
    traced.codes.push_back(step.emitted);
    traced.lengths.push_back(static_cast<std::uint32_t>(step.char_index - match_start));
    match_start = step.char_index;
  });
  return traced;
}

/// `codes` packed at `config`'s C_E bits each, MSB first.
inline bits::BitWriter pack_codes(const lzw::LzwConfig& config,
                                  const std::vector<std::uint32_t>& codes) {
  bits::BitWriter stream;
  for (const std::uint32_t code : codes) stream.write(code, config.code_bits());
  return stream;
}

}  // namespace tdc::code_lists

#endif  // TDC_TESTS_CODE_LISTS_H
