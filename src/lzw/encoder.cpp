#include "lzw/encoder.h"

#include "core/contracts.h"

#include <algorithm>
#include <array>
#include <bit>

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

/// The slab order that keeps `rule`'s winner at the first compatible lane
/// (the last, for MostRecent): codes grow in insertion order, so each
/// order's lane ties fall exactly where the rule's strict comparisons put
/// them.
constexpr SlabOrder slab_order(Tiebreak rule) {
  switch (rule) {
    case Tiebreak::LowestChar:
      return SlabOrder::Char;
    case Tiebreak::MostChildren:
      return SlabOrder::ChildCount;
    case Tiebreak::First:
    case Tiebreak::MostRecent:
    case Tiebreak::Lookahead:
      return SlabOrder::Insertion;
  }
  return SlabOrder::Insertion;
}

using Char = bits::CharCursor::Char;

/// Lookahead's depth-2 chain below its pick c at character i: g is c's
/// first child compatible with character i + 1, h is g's first child
/// compatible with character i + 2 (kNoCode when absent or past the
/// score's reach).
struct Chain {
  std::uint32_t g = kNoCode;
  std::uint32_t h = kNoCode;
};

/// The Lookahead pick at character i, from `x` = characters i, i + 1 and
/// i + 2. A child scores how many of the next `top` = min(2, characters
/// after i) characters its first-compatible descendants keep matching; a
/// later child replaces the best only with a strictly higher score, so the
/// first child reaching `top` is the pick and the scan stops there. On
/// return `chain` holds the pick's chain.
///
/// `carried` says the match just extended through the previous pick, whose
/// chain is in `chain`: then chain.g is the first child this scan would
/// score, and chain.h is g's first match along character i + 1, so one
/// lookup along character i + 2 scores g. When g reaches the top score it
/// is the pick and the current slab is not scanned.
std::uint32_t lookahead_pick(const Dictionary& dict, std::uint32_t buffer,
                             const std::array<Char, 3>& x, int top, bool carried,
                             Chain& chain) {
  if (carried) {
    const std::uint32_t g = chain.g;
    if (g == kNoCode || top == 0) return g;  // no compatible child, or no score
    if (chain.h != kNoCode) {
      if (top == 1) {
        chain = Chain{.g = chain.h};
        return g;
      }
      if (const std::uint32_t h = dict.first_match(chain.h, x[2].value, x[2].care);
          h != kNoCode) {
        chain = Chain{.g = chain.h, .h = h};
        return g;
      }
    }
  }
  std::uint32_t best = kNoCode;
  int best_score = -1;
  dict.for_each_match(buffer, x[0].value, x[0].care, [&](std::uint32_t child, std::uint32_t) {
    Chain c;
    int score = 0;
    if (top > 0 && (c.g = dict.first_match(child, x[1].value, x[1].care)) != kNoCode) {
      score = 1;
      if (top > 1 && (c.h = dict.first_match(c.g, x[2].value, x[2].care)) != kNoCode) {
        score = 2;
      }
    }
    if (score > best_score) {
      best = child;
      best_score = score;
      chain = c;
    }
    return score < top;
  });
  return best;
}

/// The compression loop, compiled once per tie-break rule.
template <Tiebreak Rule>
EncodeResult encode_with(const LzwConfig& config, const bits::TritVector& input,
                         const StepObserver& observer) {
  constexpr SlabOrder kOrder = slab_order(Rule);
  constexpr bool kLookahead = Rule == Tiebreak::Lookahead;
  const std::uint32_t cc = config.char_bits;

  EncodeResult result;
  result.config = config;
  result.original_bits = input.size();
  result.input_chars = (input.size() + cc - 1) / cc;

  Dictionary dict(config);
  const std::uint32_t initial_codes = dict.size();
  const bool initially_full = dict.full();
  const std::uint64_t full_care = cc >= 64 ? ~0ULL : (1ULL << cc) - 1;
  const std::uint32_t fixed_width = config.code_bits();

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
  // register increment folded into the pick arm whose slab scan dwarfs it
  // (micro_codec pins the total overhead under 2%).
  std::uint64_t n_probes_scan = 0, n_x_zeroed = 0;
  // Per-emit match lengths and code widths are counted (one array
  // increment each) and folded into the match_chars and code_width_bits
  // histograms after the loop; a full histogram add per emission is
  // measurable in micro_codec.
  SampleCounts lengths(result.telemetry.match_chars);
  SampleCounts widths(result.telemetry.code_width_bits);
  std::uint32_t width_basis = dict.size();
  auto emit = [&](std::uint32_t code) {
    ++result.code_count;
    lengths.record(dict.length(code));
    // Clamp at C_E: once the dictionary is full, codes stay below N even
    // though bit_width(N) would be one wider.
    const std::uint32_t width =
        config.variable_width
            ? std::min(static_cast<std::uint32_t>(std::bit_width(width_basis)),
                       fixed_width)
            : fixed_width;
    result.stream.write(code, width);
    widths.record(width);
    result.longest_match_bits =
        std::max(result.longest_match_bits, dict.length_bits(code));
  };

  // x[0] is character i; Lookahead also reads characters i + 1 and i + 2
  // from the same window, which the cursor refills one character per step
  // (X past the input, where no score reaches).
  constexpr std::size_t kWindow = kLookahead ? 3 : 1;
  std::array<Char, kWindow> x{};
  bits::CharCursor cursor(input, cc);
  for (Char& c : x) {
    if (!cursor.done()) c = cursor.next();
  }
  bool carried = false;  // Lookahead: `chain` belongs to the current buffer
  Chain chain;

  const bool observing = static_cast<bool>(observer);
  std::uint32_t buffer = kNoCode;
  for (std::uint64_t i = 0; i < result.input_chars; ++i) {
    const std::uint64_t value = x[0].value;
    const std::uint64_t care = x[0].care;
    const std::uint32_t buffer_before = buffer;
    std::uint32_t emitted = kNoCode;
    std::uint32_t new_entry = kNoCode;

    std::uint32_t child = kNoCode;
    if (buffer == kNoCode) {
      // First character of the message: bind its X bits (to 0) and start
      // the match at the corresponding literal root.
      n_x_zeroed += static_cast<std::uint64_t>(std::popcount(full_care & ~care));
      buffer = static_cast<std::uint32_t>(value & care);
    } else {
      if (care == full_care) {
        // Fully specified character: at most one child can be compatible,
        // so every Tiebreak agrees and the exact lookup (the match kernel
        // with a full care mask) replaces the pick. Only the pick path
        // counts probes — the fast total is derived.
        child = dict.child(buffer, static_cast<std::uint32_t>(value));
        carried = false;
      } else {
        ++n_probes_scan;
        if constexpr (kLookahead) {
          const std::uint64_t after = result.input_chars - 1 - i;
          const int top = after < 2 ? static_cast<int>(after) : 2;
          child = lookahead_pick(dict, buffer, x, top, carried, chain);
          carried = child != kNoCode;
        } else if constexpr (Rule == Tiebreak::MostRecent) {
          child = dict.last_match(buffer, value, care);
        } else {
          child = dict.first_match(buffer, value, care);
        }
      }
      if (child != kNoCode) {
        // The (Buffer, Input) pair exists (for some legal X binding): keep
        // matching. The X bits are hereby bound to the child's character.
        buffer = child;
      } else {
        // No compatible child: emit Buffer, create the (Buffer, Input)
        // entry with a concrete binding of the X bits, and restart the
        // match there.
        emit(buffer);
        emitted = buffer;
        n_x_zeroed += static_cast<std::uint64_t>(std::popcount(full_care & ~care));
        const auto ch = static_cast<std::uint32_t>(value & care);  // X -> 0
        width_basis = dict.size();
        new_entry = dict.add<kOrder>(buffer, ch);
        buffer = ch;
      }
    }
    if (observing) {
      observer(EncoderStep{.char_index = i, .char_value = value,
                           .char_care = care, .buffer_before = buffer_before,
                           .buffer_after = buffer, .emitted = emitted,
                           .new_entry = new_entry});
    }
    for (std::size_t k = 1; k < kWindow; ++k) x[k - 1] = x[k];
    x[kWindow - 1] = cursor.done() ? Char{} : cursor.next();
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
  tel.match_extensions = result.input_chars - result.code_count;
  tel.x_bits_input =
      input.x_count() + (result.input_chars * cc - input.size());
  tel.x_bits_zeroed = n_x_zeroed;
  tel.x_bits_matched = tel.x_bits_input - n_x_zeroed;
  tel.entries_added = dict.size() - initial_codes;
  tel.dict_full_events = !initially_full && dict.full() ? 1 : 0;
  lengths.fold();
  widths.fold();

  result.dict_codes_used = dict.size();
  result.longest_entry_bits = dict.longest_entry_bits();
  return result;
}

}  // namespace

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
  EncodeResult result;
  switch (tiebreak_) {
    case Tiebreak::First:
      result = encode_with<Tiebreak::First>(config_, *input, observer);
      break;
    case Tiebreak::LowestChar:
      result = encode_with<Tiebreak::LowestChar>(config_, *input, observer);
      break;
    case Tiebreak::MostRecent:
      result = encode_with<Tiebreak::MostRecent>(config_, *input, observer);
      break;
    case Tiebreak::MostChildren:
      result = encode_with<Tiebreak::MostChildren>(config_, *input, observer);
      break;
    case Tiebreak::Lookahead:
      result = encode_with<Tiebreak::Lookahead>(config_, *input, observer);
      break;
  }
  if (mode != XAssignMode::Dynamic) {
    // A pre-fill mode resolved every X bit before the loop saw the stream.
    result.telemetry.x_bits_prefilled = raw_input.x_count();
  }
  // O(1) exit contracts, outside every loop (§10 discipline): a code never
  // expands from fewer characters than it emits, and with fixed-width
  // packing the stream is exactly codes * C_E bits — the paper's central
  // bit-accounting relation.
  TDC_ENSURE(result.code_count <= result.input_chars,
             "encode emitted more codes than input characters");
  TDC_ENSURE(config_.variable_width ||
                 result.stream.bit_count() == result.code_count * config_.code_bits(),
             "fixed-width stream must hold exactly codes * C_E bits");
  span.arg("input_bits", result.original_bits);
  span.arg("codes", result.code_count);
  return result;
}

}  // namespace tdc::lzw
