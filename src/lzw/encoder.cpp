#include "lzw/encoder.h"

#include "core/contracts.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "bits/rng.h"
#include "obs/trace.h"

namespace tdc::lzw {

namespace {

/// Applies a pre-fill mode, turning the ternary input into a fully
/// specified vector. Precondition: mode != Dynamic (the dynamic path reads
/// the caller's vector in place; see encode()).
bits::TritVector prefill(const bits::TritVector& input, XAssignMode mode,
                         std::uint64_t rng_seed) {
  switch (mode) {
    case XAssignMode::Dynamic:
      return input;
    case XAssignMode::ZeroFill:
      return input.filled(bits::Trit::Zero);
    case XAssignMode::OneFill:
      return input.filled(bits::Trit::One);
    case XAssignMode::RepeatFill:
      return input.filled_repeat_last();
    case XAssignMode::RandomFill: {
      bits::Rng rng(rng_seed);
      return input.filled_random(rng);
    }
  }
  return input;
}

/// Builds the per-stream emission histograms after the loop: match lengths
/// are counted from the already-recorded code_lengths, code widths were
/// counted by the emit path; both fold in with one record_repeated per
/// value. Equivalent to recording each sample inline, but keeps the full
/// histogram update off the hot emit path (micro_codec pins the telemetry
/// overhead under 2%).
void fold_emit_histograms(EncodeResult& result, SampleCounts& widths) {
  SampleCounts lengths(result.telemetry.match_chars);
  for (const std::uint32_t len : result.code_lengths) lengths.record(len);
  lengths.fold();
  widths.fold();
}

}  // namespace

std::uint32_t Encoder::pick_child(const Dictionary& dict, std::uint32_t buffer,
                                  std::uint64_t value, std::uint64_t care,
                                  const bits::CharCursor& cursor,
                                  std::uint64_t char_index,
                                  std::uint64_t input_chars) const {
  // How many of the next input characters `code`'s subtree can keep
  // matching (greedy, first compatible grandchild) — the Lookahead score.
  const auto lookahead_score = [&](std::uint32_t code) {
    constexpr int kDepth = 2;
    int score = 0;
    std::uint32_t cur = code;
    for (int d = 1; d <= kDepth && char_index + d < input_chars; ++d) {
      const auto [nv, nc] = cursor.at(char_index + d);
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
    switch (tiebreak_) {
      case Tiebreak::First:
        return child;  // insertion order: first compatible wins
      case Tiebreak::LowestChar:
        // Track the winning candidate's own character explicitly; ties
        // resolve by the character scanned, never a stale lookup.
        if (best == kNoCode || ch < best_ch) {
          best = child;
          best_ch = ch;
        }
        break;
      case Tiebreak::MostRecent:
        if (best == kNoCode || child > best) best = child;
        break;
      case Tiebreak::MostChildren: {
        // O(1): the dictionary maintains the count at add time.
        const std::size_t n = dict.child_count(child);
        if (best == kNoCode || n > best_children) {
          best = child;
          best_children = n;
        }
        break;
      }
      case Tiebreak::Lookahead: {
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

std::uint32_t Encoder::pick_indexed(const Dictionary& dict, std::uint32_t buffer,
                                    std::uint64_t value, std::uint64_t care,
                                    const bits::CharCursor::Char& next,
                                    const bits::CharCursor& cursor,
                                    std::uint64_t char_index,
                                    std::uint64_t input_chars) const {
  // Every rule reads the compatibility hits of one slab scan. A code's
  // children sit in increasing code order, so insertion order, age and
  // code value agree; the strict comparisons below keep pick_child's ties.
  std::uint32_t best = kNoCode;
  switch (tiebreak_) {
    case Tiebreak::First:
      return dict.first_match(buffer, value, care);
    case Tiebreak::MostRecent:
      return dict.last_match(buffer, value, care);
    case Tiebreak::LowestChar: {
      std::uint32_t best_ch = 0;
      dict.for_each_match(buffer, value, care, [&](std::uint32_t child, std::uint32_t ch) {
        if (best == kNoCode || ch < best_ch) {
          best = child;
          best_ch = ch;
        }
        return true;
      });
      return best;
    }
    case Tiebreak::MostChildren: {
      std::uint32_t best_children = 0;
      dict.for_each_match(buffer, value, care, [&](std::uint32_t child, std::uint32_t) {
        const std::uint32_t n = dict.child_count(child);
        if (best == kNoCode || n > best_children) {
          best = child;
          best_children = n;
        }
        return true;
      });
      return best;
    }
    case Tiebreak::Lookahead: {
      // Score = how many of the next two characters the child's subtree
      // keeps matching along first-compatible descendants. Character i + 1
      // is the loop's pipelined `next`; i + 2 is fetched at most once per
      // probe. Scores never exceed min(2, characters after this one), and
      // a later child replaces the best only with a strictly higher score,
      // so the first child reaching that bound is the pick.
      const std::uint64_t after = input_chars - 1 - char_index;
      const int top = after < 2 ? static_cast<int>(after) : 2;
      int best_score = -1;
      bool have_second = false;
      bits::CharCursor::Char second{};
      dict.for_each_match(buffer, value, care, [&](std::uint32_t child, std::uint32_t) {
        int score = 0;
        const std::uint32_t grandchild =
            top > 0 ? dict.first_match(child, next.value, next.care) : kNoCode;
        if (grandchild != kNoCode) {
          score = 1;
          if (top > 1) {
            if (!have_second) {
              second = cursor.at(char_index + 2);
              have_second = true;
            }
            if (dict.first_match(grandchild, second.value, second.care) != kNoCode) {
              score = 2;
            }
          }
        }
        if (score > best_score) {
          best = child;
          best_score = score;
        }
        return score < top;
      });
      return best;
    }
  }
  return best;
}

EncodeResult Encoder::encode(const bits::TritVector& raw_input, XAssignMode mode,
                             std::uint64_t rng_seed,
                             const StepObserver& observer) const {
  obs::TraceSpan span("lzw.encode");
  // Dynamic mode — the paper's method and the hot configuration — reads the
  // caller's vector in place; only the pre-fill strawmen materialize a
  // resolved copy.
  bits::TritVector filled;
  const bits::TritVector* input = &raw_input;
  if (mode != XAssignMode::Dynamic) {
    filled = prefill(raw_input, mode, rng_seed);
    input = &filled;
  }
  EncodeResult result = strategy_ == MatchStrategy::Indexed
                            ? encode_indexed(*input, observer)
                            : encode_legacy(*input, observer);
  if (mode != XAssignMode::Dynamic) {
    // A pre-fill mode resolved every X bit before the loop saw the stream.
    result.telemetry.x_bits_prefilled = raw_input.x_count();
  }
  // O(1) exit contracts, outside every loop (§10 discipline): a code never
  // expands from fewer characters than it emits, and with fixed-width
  // packing the stream is exactly codes * C_E bits — the paper's central
  // bit-accounting relation.
  TDC_ENSURE(result.codes.size() <= result.input_chars,
             "encode emitted more codes than input characters");
  TDC_ENSURE(config_.variable_width ||
                 result.stream.bit_count() ==
                     result.codes.size() * config_.code_bits(),
             "fixed-width stream must hold exactly codes * C_E bits");
  span.arg("input_bits", result.original_bits);
  span.arg("codes", static_cast<std::uint64_t>(result.codes.size()));
  return result;
}

EncodeResult Encoder::encode_indexed(const bits::TritVector& input,
                                     const StepObserver& observer) const {
  const std::uint32_t cc = config_.char_bits;

  EncodeResult result;
  result.config = config_;
  result.original_bits = input.size();
  result.input_chars = (input.size() + cc - 1) / cc;
  // Worst case one code per character (no compression): size once so the
  // emit path never reallocates.
  result.codes.reserve(result.input_chars);
  result.code_lengths.reserve(result.input_chars);

  Dictionary dict(config_);
  const std::uint32_t initial_codes = dict.size();
  const bool initially_full = dict.full();
  bits::CharCursor cursor(input, cc);
  const std::uint64_t full_care = cc >= 64 ? ~0ULL : (1ULL << cc) - 1;
  const std::uint32_t fixed_width = config_.code_bits();

  // Variable-width basis: the decoder's dictionary lags the encoder's by
  // exactly one insertion when it reads a code (it learns the entry for
  // emission k only while processing emission k+1), so each code must be
  // sized by the dictionary state *before* the encoder's latest add —
  // the classic LZW width-change timing.
  EncoderTelemetry& tel = result.telemetry;
  // Telemetry discipline for this loop: anything derivable from loop
  // invariants is reconstructed after the loop (probes = chars - 1,
  // extensions = chars - codes, x_input = x_count + tail padding), and the
  // X-bit split is counted where a character's X bits are *zeroed* — the
  // cold init/emit branches — with the matched total derived as
  // x_input - x_zeroed, because every character is consumed by exactly one
  // branch. The match branch, the hottest code in the repo, carries zero
  // added work. The only live counter on a hot path is n_probes_scan, a
  // register increment folded into the pick arm whose pick_indexed call
  // dwarfs it (micro_codec pins the total overhead under 2%).
  std::uint64_t n_probes_scan = 0, n_x_zeroed = 0;
  // Per-emit code widths are counted (one array increment each) and
  // folded into the code_width_bits histogram after the loop; a full
  // histogram add per emission is measurable in micro_codec. match_chars is
  // rebuilt from result.code_lengths the same way.
  SampleCounts widths(result.telemetry.code_width_bits);
  std::uint32_t width_basis = dict.size();
  auto emit = [&](std::uint32_t code) {
    result.codes.push_back(code);
    result.code_lengths.push_back(dict.length(code));
    // Clamp at C_E: once the dictionary is full, codes stay below N even
    // though bit_width(N) would be one wider.
    const std::uint32_t width =
        config_.variable_width
            ? std::min(static_cast<std::uint32_t>(std::bit_width(width_basis)),
                       fixed_width)
            : fixed_width;
    result.stream.write(code, width);
    widths.record(width);
    result.longest_match_bits =
        std::max(result.longest_match_bits, dict.length_bits(code));
  };

  // The cursor is software-pipelined one character ahead: once character i
  // is read, `cur` already holds character i + 1, which the Lookahead rule
  // scores against without a second extraction.
  const bool observing = static_cast<bool>(observer);
  std::uint32_t buffer = kNoCode;
  bits::CharCursor::Char cur{};
  if (result.input_chars > 0) cur = cursor.next();
  for (std::uint64_t i = 0; i < result.input_chars; ++i) {
    const std::uint64_t value = cur.value;
    const std::uint64_t care = cur.care;
    const bool has_ahead = i + 1 < result.input_chars;
    if (has_ahead) cur = cursor.next();
    const std::uint32_t buffer_before = buffer;
    std::uint32_t emitted = kNoCode;
    std::uint32_t new_entry = kNoCode;

    if (buffer == kNoCode) {
      // First character of the message: bind its X bits (to 0) and start
      // the match at the corresponding literal root.
      n_x_zeroed += static_cast<std::uint64_t>(std::popcount(full_care & ~care));
      buffer = static_cast<std::uint32_t>(value & care);
    } else if (const std::uint32_t child =
                   care == full_care
                       // Fully specified character: at most one child can
                       // be compatible, so every Tiebreak agrees and the
                       // exact lookup (the match kernel with a full care
                       // mask) replaces the pick rules. Only the pick path
                       // counts probes — the fast total is derived.
                       ? dict.child(buffer, static_cast<std::uint32_t>(value))
                       : (++n_probes_scan,
                          pick_indexed(dict, buffer, value, care, cur, cursor, i,
                                       result.input_chars));
               child != kNoCode) {
      // The (Buffer, Input) pair exists (for some legal X binding): keep
      // matching. The X bits are hereby bound to the child's character.
      buffer = child;
    } else {
      // No compatible child: emit Buffer, create the (Buffer, Input) entry
      // with a concrete binding of the X bits, and restart the match there.
      emit(buffer);
      emitted = buffer;
      n_x_zeroed += static_cast<std::uint64_t>(std::popcount(full_care & ~care));
      const auto ch = static_cast<std::uint32_t>(value & care);  // X -> 0
      width_basis = dict.size();
      new_entry = dict.add(buffer, ch);
      buffer = ch;
    }
    if (observing) {
      observer(EncoderStep{.char_index = i, .char_value = value,
                           .char_care = care, .buffer_before = buffer_before,
                           .buffer_after = buffer, .emitted = emitted,
                           .new_entry = new_entry});
    }
  }
  if (buffer != kNoCode) {
    emit(buffer);
    if (observer) {
      observer(EncoderStep{.char_index = result.input_chars,
                           .buffer_before = buffer, .buffer_after = kNoCode,
                           .emitted = buffer});
    }
  }
  // Reconstruct the derivable counters from loop invariants: every character
  // after the first probes exactly once, a probe either extends or ends a
  // match (the final emit is outside the loop), every X bit — including
  // the X padding of a partial tail character — is bound exactly once
  // (either to a matched child on the hot branch or to 0 on a cold branch),
  // the dictionary grows by one per successful add and never shrinks, and
  // "full" is entered at most once and never left.
  const std::uint64_t probes =
      result.input_chars > 0 ? result.input_chars - 1 : 0;
  tel.probes_scan = n_probes_scan;
  tel.probes_fast = probes - n_probes_scan;
  tel.match_extensions = result.input_chars - result.codes.size();
  tel.x_bits_input =
      input.x_count() + (result.input_chars * cc - input.size());
  tel.x_bits_zeroed = n_x_zeroed;
  tel.x_bits_matched = tel.x_bits_input - n_x_zeroed;
  tel.entries_added = dict.size() - initial_codes;
  tel.dict_full_events = !initially_full && dict.full() ? 1 : 0;
  fold_emit_histograms(result, widths);

  result.dict_codes_used = dict.size();
  result.longest_entry_bits = dict.longest_entry_bits();
  return result;
}

EncodeResult Encoder::encode_legacy(const bits::TritVector& input,
                                    const StepObserver& observer) const {
  // Faithful replica of the pre-index encoder: per-character
  // word()/care_word() re-slice, unconditional child-list scan, per-bit
  // stream emission, no container pre-sizing. Kept byte-for-byte equivalent
  // in output (the lzw_paths property test enforces it) so it can serve as
  // the reference implementation and as the micro_codec baseline the
  // Indexed path's speedup is measured against.
  const std::uint32_t cc = config_.char_bits;

  EncodeResult result;
  result.config = config_;
  result.original_bits = input.size();
  result.input_chars = (input.size() + cc - 1) / cc;

  Dictionary dict(config_);
  const std::uint32_t initial_codes = dict.size();
  const bool initially_full = dict.full();
  bits::CharCursor cursor(input, cc);  // feeds only the Lookahead probe
  const std::uint64_t full_care = cc >= 64 ? ~0ULL : (1ULL << cc) - 1;

  // Same always-on telemetry as the indexed path; every probe counts as a
  // scan here because the legacy strategy walks the child list for every
  // character, fully specified or not.
  EncoderTelemetry& tel = result.telemetry;
  // Same derive-after-the-loop discipline as the indexed path (see the
  // comment there): the legacy loop is the micro_codec baseline, so its
  // telemetry must not cost more than the indexed path's either. Every
  // legacy probe is a scan, so not even a probe counter is needed — the
  // X-bit split is counted in the cold init/emit branches alone.
  std::uint64_t n_x_zeroed = 0;
  SampleCounts widths(result.telemetry.code_width_bits);
  std::uint32_t width_basis = dict.size();
  auto emit = [&](std::uint32_t code) {
    result.codes.push_back(code);
    result.code_lengths.push_back(dict.length(code));
    const std::uint32_t width =
        config_.variable_width
            ? std::min(static_cast<std::uint32_t>(std::bit_width(width_basis)),
                       config_.code_bits())
            : config_.code_bits();
    // The pre-PR BitWriter wrote codes one bit at a time; keep that cost
    // here so the baseline measurement stays honest.
    for (std::uint32_t b = width; b-- > 0;) {
      result.stream.write_bit(((code >> b) & 1u) != 0);
    }
    widths.record(width);
    result.longest_match_bits =
        std::max(result.longest_match_bits, dict.length_bits(code));
  };

  std::uint32_t buffer = kNoCode;
  for (std::uint64_t i = 0; i < result.input_chars; ++i) {
    const std::uint64_t pos = i * cc;
    const std::uint64_t value = input.word(pos, cc);
    const std::uint64_t care = input.care_word(pos, cc);
    EncoderStep step{.char_index = i, .char_value = value, .char_care = care,
                     .buffer_before = buffer};

    if (buffer == kNoCode) {
      n_x_zeroed += static_cast<std::uint64_t>(std::popcount(full_care & ~care));
      buffer = static_cast<std::uint32_t>(value & care);
    } else if (const std::uint32_t child = pick_child(
                   dict, buffer, value, care, cursor, i, result.input_chars);
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
      observer(EncoderStep{.char_index = result.input_chars,
                           .buffer_before = buffer, .buffer_after = kNoCode,
                           .emitted = buffer});
    }
  }
  // Derived exactly as in the indexed path; the legacy strategy has no
  // exact-lookup arm, so every probe is a scan.
  tel.probes_scan = result.input_chars > 0 ? result.input_chars - 1 : 0;
  tel.match_extensions = result.input_chars - result.codes.size();
  tel.x_bits_input =
      input.x_count() + (result.input_chars * cc - input.size());
  tel.x_bits_zeroed = n_x_zeroed;
  tel.x_bits_matched = tel.x_bits_input - n_x_zeroed;
  tel.entries_added = dict.size() - initial_codes;
  tel.dict_full_events = !initially_full && dict.full() ? 1 : 0;
  fold_emit_histograms(result, widths);

  result.dict_codes_used = dict.size();
  result.longest_entry_bits = dict.longest_entry_bits();
  return result;
}

}  // namespace tdc::lzw
