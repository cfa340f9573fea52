// Reference encoders kept out of the library: the oracles that the property
// tests and bench/micro_codec hold the fast paths against. Each one is the
// straightforward form of its codec, built only on the public API, so a
// fast path that agrees with it agrees with the definition rather than
// with shared machinery.
//
//   * reference_lzw_encode — the don't-care-aware LZW encoder as first
//     written: per-character word()/care_word() re-slice, an
//     insertion-ordered Dictionary, a child-by-child walk of the current
//     code's children applying the tie-break rule literally, per-bit stream
//     emission and no container pre-sizing. Its output equals
//     lzw::Encoder's for every rule and X mode, probe split aside: every
//     probe here counts as a scan, because it never takes the exact
//     lookup. telemetry_json() compares everything else; equal streams
//     written at the rule's widths, with equal code counts, hold equal
//     codes.
//   * reference_best_rle — the tuned RLE grid as seven full encodes
//     (Golomb m = 4 ... 128, then FDR), keeping the first strictly smaller
//     stream.
#ifndef TDC_TESTS_REFERENCE_ENCODERS_H
#define TDC_TESTS_REFERENCE_ENCODERS_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>

#include "bits/rng.h"
#include "bits/tritvector.h"
#include "codec/rle.h"
#include "lzw/dictionary.h"
#include "lzw/encoder.h"
#include "lzw/telemetry.h"

namespace tdc::reference {

/// The tie-break rule applied literally: walks every child of `buffer` in
/// insertion order, one compatibility test each, and returns the rule's
/// pick or kNoCode if no child is compatible. Lookahead scores a child by
/// how many of the next two characters (read from `input`) its
/// first-compatible descendants keep matching; a later child wins only
/// with a strictly higher score.
inline std::uint32_t reference_pick(const lzw::Dictionary& dict, lzw::Tiebreak tiebreak,
                                    std::uint32_t buffer, std::uint64_t value,
                                    std::uint64_t care, const bits::TritVector& input,
                                    std::uint64_t char_index, std::uint64_t input_chars) {
  using lzw::kNoCode;
  const std::uint32_t cc = dict.config().char_bits;
  const auto lookahead_score = [&](std::uint32_t code) {
    constexpr int kDepth = 2;
    int score = 0;
    std::uint32_t cur = code;
    for (int d = 1; d <= kDepth && char_index + d < input_chars; ++d) {
      const std::size_t pos = static_cast<std::size_t>(char_index + d) * cc;
      const std::uint64_t nv = input.word(pos, cc);
      const std::uint64_t nc = input.care_word(pos, cc);
      std::uint32_t next = kNoCode;
      for (const auto& [ch, child] : dict.children(cur)) {
        if (((static_cast<std::uint64_t>(ch) ^ nv) & nc) == 0) {
          next = child;
          break;
        }
      }
      if (next == kNoCode) break;
      ++score;
      cur = next;
    }
    return score;
  };

  std::uint32_t best = kNoCode;
  std::uint32_t best_ch = 0;
  std::size_t best_children = 0;
  int best_score = -1;
  for (const auto& [ch, child] : dict.children(buffer)) {
    if (((static_cast<std::uint64_t>(ch) ^ value) & care) != 0) continue;
    switch (tiebreak) {
      case lzw::Tiebreak::First:
        return child;  // insertion order: first compatible wins
      case lzw::Tiebreak::LowestChar:
        if (best == kNoCode || ch < best_ch) {
          best = child;
          best_ch = ch;
        }
        break;
      case lzw::Tiebreak::MostRecent:
        if (best == kNoCode || child > best) best = child;
        break;
      case lzw::Tiebreak::MostChildren: {
        const std::size_t n = dict.child_count(child);
        if (best == kNoCode || n > best_children) {
          best = child;
          best_children = n;
        }
        break;
      }
      case lzw::Tiebreak::Lookahead: {
        const int score = lookahead_score(child);
        if (score > best_score) {
          best = child;
          best_score = score;
        }
        break;
      }
    }
  }
  return best;
}

/// The reference encode: the same result fields as lzw::Encoder::encode
/// for `input` under `tiebreak` and `mode`.
inline lzw::EncodeResult reference_lzw_encode(
    const lzw::LzwConfig& config, lzw::Tiebreak tiebreak, const bits::TritVector& raw_input,
    lzw::XAssignMode mode = lzw::XAssignMode::Dynamic, std::uint64_t rng_seed = 1,
    const lzw::StepObserver& observer = {}) {
  using lzw::kNoCode;
  // A pre-fill mode encodes a resolved copy; Dynamic reads `raw_input`.
  bits::TritVector filled;
  switch (mode) {
    case lzw::XAssignMode::Dynamic:
      break;
    case lzw::XAssignMode::ZeroFill:
      filled = raw_input.filled(bits::Trit::Zero);
      break;
    case lzw::XAssignMode::OneFill:
      filled = raw_input.filled(bits::Trit::One);
      break;
    case lzw::XAssignMode::RepeatFill:
      filled = raw_input.filled_repeat_last();
      break;
    case lzw::XAssignMode::RandomFill: {
      bits::Rng rng(rng_seed);
      filled = raw_input.filled_random(rng);
      break;
    }
  }
  const bits::TritVector& input = mode == lzw::XAssignMode::Dynamic ? raw_input : filled;
  const std::uint32_t cc = config.char_bits;

  lzw::EncodeResult result;
  result.config = config;
  result.original_bits = input.size();
  result.input_chars = (input.size() + cc - 1) / cc;

  lzw::Dictionary dict(config);
  const std::uint32_t initial_codes = dict.size();
  const bool initially_full = dict.full();
  const std::uint64_t full_care = cc >= 64 ? ~0ULL : (1ULL << cc) - 1;

  lzw::EncoderTelemetry& tel = result.telemetry;
  std::uint64_t n_x_zeroed = 0;
  lzw::SampleCounts lengths(tel.match_chars);
  lzw::SampleCounts widths(tel.code_width_bits);
  std::uint32_t width_basis = dict.size();
  auto emit = [&](std::uint32_t code) {
    ++result.code_count;
    lengths.record(dict.length(code));
    const std::uint32_t width =
        config.variable_width
            ? std::min(static_cast<std::uint32_t>(std::bit_width(width_basis)),
                       config.code_bits())
            : config.code_bits();
    for (std::uint32_t b = width; b-- > 0;) {
      result.stream.write_bit(((code >> b) & 1u) != 0);
    }
    widths.record(width);
    result.longest_match_bits = std::max(result.longest_match_bits, dict.length_bits(code));
  };

  std::uint32_t buffer = kNoCode;
  for (std::uint64_t i = 0; i < result.input_chars; ++i) {
    const std::size_t pos = static_cast<std::size_t>(i) * cc;
    const std::uint64_t value = input.word(pos, cc);
    const std::uint64_t care = input.care_word(pos, cc);
    lzw::EncoderStep step{.char_index = i, .char_value = value, .char_care = care,
                          .buffer_before = buffer};
    if (buffer == kNoCode) {
      n_x_zeroed += static_cast<std::uint64_t>(std::popcount(full_care & ~care));
      buffer = static_cast<std::uint32_t>(value & care);
    } else if (const std::uint32_t child = reference_pick(dict, tiebreak, buffer, value,
                                                          care, input, i, result.input_chars);
               child != kNoCode) {
      buffer = child;
    } else {
      emit(buffer);
      step.emitted = buffer;
      n_x_zeroed += static_cast<std::uint64_t>(std::popcount(full_care & ~care));
      const auto ch = static_cast<std::uint32_t>(value & care);  // X -> 0
      width_basis = dict.size();
      step.new_entry = dict.add(buffer, ch);
      buffer = ch;
    }
    if (observer) {
      step.buffer_after = buffer;
      observer(step);
    }
  }
  if (buffer != kNoCode) {
    emit(buffer);
    if (observer) {
      observer(lzw::EncoderStep{.char_index = result.input_chars, .buffer_before = buffer,
                                .buffer_after = kNoCode, .emitted = buffer});
    }
  }
  tel.probes_scan = result.input_chars > 0 ? result.input_chars - 1 : 0;
  tel.match_extensions = result.input_chars - result.code_count;
  tel.x_bits_input = input.x_count() + (result.input_chars * cc - input.size());
  tel.x_bits_zeroed = n_x_zeroed;
  tel.x_bits_matched = tel.x_bits_input - n_x_zeroed;
  tel.x_bits_prefilled = mode == lzw::XAssignMode::Dynamic ? 0 : raw_input.x_count();
  tel.entries_added = dict.size() - initial_codes;
  tel.dict_full_events = !initially_full && dict.full() ? 1 : 0;
  lengths.fold();
  widths.fold();

  result.dict_codes_used = dict.size();
  result.longest_entry_bits = dict.longest_entry_bits();
  return result;
}

/// `encoded`'s telemetry JSON with the probe split summed into
/// probes_scan: the one part of the telemetry where the reference and
/// lzw::Encoder differ by design.
inline std::string telemetry_json(const lzw::EncodeResult& encoded) {
  lzw::EncoderTelemetry tel = encoded.telemetry;
  tel.probes_scan += tel.probes_fast;
  tel.probes_fast = 0;
  return tel.to_json();
}

/// The tuned RLE grid as seven full encodes: Golomb m = 4, 8, ..., 128,
/// then FDR, keeping the first strictly smaller stream. `encode` is
/// codec::alternating_rle_encode or codec::golomb_rle_encode.
template <class EncodeFn>
codec::RleResult reference_best_rle(const bits::TritVector& input, EncodeFn encode) {
  codec::RleResult best;
  bool have = false;
  for (const std::uint32_t m : {4u, 8u, 16u, 32u, 64u, 128u}) {
    codec::RleResult r = encode(input, codec::RleConfig{codec::RunCode::Golomb, m});
    if (!have || r.stream.bit_count() < best.stream.bit_count()) {
      best = std::move(r);
      have = true;
    }
  }
  codec::RleResult fdr = encode(input, codec::RleConfig{codec::RunCode::Fdr, 0});
  if (fdr.stream.bit_count() < best.stream.bit_count()) best = std::move(fdr);
  return best;
}

}  // namespace tdc::reference

#endif  // TDC_TESTS_REFERENCE_ENCODERS_H
