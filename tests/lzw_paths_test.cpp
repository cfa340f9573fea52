// Property tests for the encoder against the reference match strategy: the
// fast path (policy-ordered child slabs, the slab match kernel, Lookahead's
// carried chain and the one-pass CharCursor) must produce byte-identical
// output to reference_lzw_encode (a child-by-child walk of an
// insertion-ordered dictionary, tests/reference_encoders.h) for every
// tie-break and X-assignment combination — the bit-identical invariant the
// throughput work is built on. The MatchStrategyProperty suite keeps the
// name it had when the reference was a library match strategy.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "bits/rng.h"
#include "bits/tritvector.h"
#include "lzw/decoder.h"
#include "lzw/encoder.h"
#include "lzw/verify.h"
#include "reference_encoders.h"

namespace tdc::lzw {
namespace {

using bits::Rng;
using bits::Trit;
using bits::TritVector;
using reference::reference_lzw_encode;

TritVector random_cube(std::size_t n, double x_density, std::uint64_t seed) {
  Rng rng(seed);
  TritVector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!rng.chance(x_density)) v.set(i, rng.bit() ? Trit::One : Trit::Zero);
  }
  return v;
}

constexpr Tiebreak kTiebreaks[] = {Tiebreak::First, Tiebreak::LowestChar,
                                   Tiebreak::MostRecent, Tiebreak::MostChildren,
                                   Tiebreak::Lookahead};
constexpr XAssignMode kModes[] = {XAssignMode::Dynamic, XAssignMode::ZeroFill,
                                  XAssignMode::OneFill, XAssignMode::RepeatFill,
                                  XAssignMode::RandomFill};

void expect_identical(const EncodeResult& a, const EncodeResult& b,
                      const char* what) {
  EXPECT_EQ(a.codes, b.codes) << what;
  EXPECT_EQ(a.code_lengths, b.code_lengths) << what;
  EXPECT_EQ(a.stream.bit_count(), b.stream.bit_count()) << what;
  EXPECT_EQ(a.stream.bytes(), b.stream.bytes()) << what;
  EXPECT_EQ(a.dict_codes_used, b.dict_codes_used) << what;
  EXPECT_EQ(a.longest_entry_bits, b.longest_entry_bits) << what;
  EXPECT_EQ(a.longest_match_bits, b.longest_match_bits) << what;
}

TEST(MatchStrategyProperty, IndexedMatchesLegacyAcrossTiebreaksAndModes) {
  const LzwConfig config{.dict_size = 512, .char_bits = 5, .entry_bits = 40};
  for (const double x_density : {0.0, 0.3, 0.9}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const TritVector input = random_cube(4000, x_density, seed);
      for (const Tiebreak tb : kTiebreaks) {
        for (const XAssignMode mode : kModes) {
          const auto a = Encoder(config, tb).encode(input, mode, /*rng_seed=*/seed);
          const auto b = reference_lzw_encode(config, tb, input, mode, /*rng_seed=*/seed);
          const std::string what =
              "tiebreak=" + std::to_string(static_cast<int>(tb)) +
              " mode=" + std::to_string(static_cast<int>(mode)) +
              " x=" + std::to_string(x_density) + " seed=" + std::to_string(seed);
          expect_identical(a, b, what.c_str());
        }
      }
    }
  }
}

TEST(MatchStrategyProperty, VariableWidthStreamsIdentical) {
  const LzwConfig config{.dict_size = 1024, .char_bits = 7, .entry_bits = 63,
                         .variable_width = true};
  const TritVector input = random_cube(6000, 0.6, 11);
  const auto a = Encoder(config, Tiebreak::First).encode(input);
  const auto b = reference_lzw_encode(config, Tiebreak::First, input);
  expect_identical(a, b, "variable width");
}

TEST(MatchStrategyProperty, IndexedPathStillVerifiesAgainstDecoder) {
  const LzwConfig config{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};
  for (const double x_density : {0.1, 0.9}) {
    const TritVector input = random_cube(8000, x_density, 23);
    const auto encoded = Encoder(config).encode(input);
    EXPECT_TRUE(verify_roundtrip(input, encoded).ok)
        << "x_density=" << x_density;
  }
}

TEST(MatchStrategyProperty, TailPartialCharacterAgrees) {
  // Input length not divisible by char_bits: the final character is padded
  // with X — both paths must treat it identically.
  const LzwConfig config{.dict_size = 256, .char_bits = 7, .entry_bits = 63};
  const TritVector input = random_cube(1003, 0.4, 5);
  const auto a = Encoder(config, Tiebreak::First).encode(input);
  const auto b = reference_lzw_encode(config, Tiebreak::First, input);
  expect_identical(a, b, "tail partial char");
}

// Adversarial X-density sweep: fully specified (x=0, the SWAR all-care fast
// path), all-X (x=1, every char matches every entry — dictionary growth is
// pure tiebreak policy), and blocky runs that flip between the two regimes
// at non-char-aligned boundaries. Every tiebreak × X-assign pair must keep
// the encoder bit-identical to the reference AND decode-roundtrip clean.
TritVector blocky_cube(std::size_t n, std::size_t run, std::uint64_t seed) {
  Rng rng(seed);
  TritVector v(n);
  bool specified = true;
  std::size_t left = run;
  for (std::size_t i = 0; i < n; ++i) {
    if (left == 0) {
      specified = !specified;
      // Uneven runs so block edges drift across char boundaries.
      left = 1 + rng.below(run);
    }
    --left;
    if (specified) v.set(i, rng.bit() ? Trit::One : Trit::Zero);
  }
  return v;
}

TEST(MatchStrategyProperty, AdversarialDensitiesBitIdenticalAndRoundTrip) {
  const LzwConfig config{.dict_size = 512, .char_bits = 5, .entry_bits = 40};
  std::vector<std::pair<const char*, TritVector>> corpora;
  corpora.emplace_back("all_specified", random_cube(3000, 0.0, 41));
  corpora.emplace_back("all_x", random_cube(3000, 1.0, 42));
  corpora.emplace_back("blocky_short", blocky_cube(3000, 3, 43));
  corpora.emplace_back("blocky_long", blocky_cube(3000, 64, 44));
  for (const auto& [name, input] : corpora) {
    for (const Tiebreak tb : kTiebreaks) {
      for (const XAssignMode mode : kModes) {
        const std::string what =
            std::string(name) +
            " tiebreak=" + std::to_string(static_cast<int>(tb)) +
            " mode=" + std::to_string(static_cast<int>(mode));
        const auto a = Encoder(config, tb).encode(input, mode, /*rng_seed=*/7);
        const auto b = reference_lzw_encode(config, tb, input, mode, /*rng_seed=*/7);
        expect_identical(a, b, what.c_str());
        const auto check = verify_roundtrip(input, a);
        EXPECT_TRUE(check.ok) << what;
      }
    }
  }
}

// Variable-width streams under the same adversarial corpora: width bumps
// land at different codes per tiebreak, so this pins the batched BitWriter's
// mid-stream width changes against the reference's per-bit emission.
TEST(MatchStrategyProperty, AdversarialDensitiesVariableWidthIdentical) {
  const LzwConfig config{.dict_size = 1024, .char_bits = 7, .entry_bits = 63,
                         .variable_width = true};
  const TritVector inputs[] = {random_cube(4000, 0.0, 51),
                               random_cube(4000, 1.0, 52),
                               blocky_cube(4000, 11, 53)};
  for (const TritVector& input : inputs) {
    for (const Tiebreak tb : kTiebreaks) {
      const auto a = Encoder(config, tb).encode(input);
      const auto b = reference_lzw_encode(config, tb, input);
      expect_identical(a, b, "adversarial variable width");
      EXPECT_TRUE(verify_roundtrip(input, a).ok);
    }
  }
}

// Largest child count any code reaches while `encoder` runs over `input`
// (an entry's parent is the code emitted with it).
std::uint32_t max_children(const Encoder& encoder, const TritVector& input) {
  std::vector<std::uint32_t> children;
  encoder.encode(input, XAssignMode::Dynamic, 1, [&](const EncoderStep& step) {
    if (step.new_entry == kNoCode) return;
    if (children.size() <= step.emitted) children.resize(step.emitted + 1);
    ++children[step.emitted];
  });
  std::uint32_t most = 0;
  for (const std::uint32_t n : children) most = std::max(most, n);
  return most;
}

// A dense C_C = 7, N = 8192 stream gives root codes more than 64 children,
// so every pick rule runs over slabs wider than one 64-lane mask and moved
// five times or more.
TEST(MatchStrategyProperty, DenseWideSlabsIdenticalForEveryTiebreak) {
  const LzwConfig config{.dict_size = 8192, .char_bits = 7, .entry_bits = 63};
  const TritVector input = random_cube(120000, 0.1, 8192);
  ASSERT_GT(max_children(Encoder(config), input), 64u);
  for (const Tiebreak tb : kTiebreaks) {
    const auto a = Encoder(config, tb).encode(input);
    const auto b = reference_lzw_encode(config, tb, input);
    const std::string what = "dense N=8192 tiebreak=" + std::to_string(static_cast<int>(tb));
    expect_identical(a, b, what.c_str());
    EXPECT_TRUE(verify_roundtrip(input, a).ok);
  }
}

// C_C = 16: characters drawn from a small alphabet spread over the whole
// 16-bit range (0x0000 and 0x8000 among them), with X bits, so slabs of
// 16-bit lanes grow wide and top-bit-only differences decide matches.
TEST(MatchStrategyProperty, Cc16IdenticalForEveryTiebreak) {
  const LzwConfig config{.dict_size = 65536 + 4096, .char_bits = 16, .entry_bits = 96};
  Rng rng(1616);
  std::vector<std::uint32_t> alphabet{0x0000, 0x8000, 0xffff, 0x7fff, 0x0001, 0x8001};
  while (alphabet.size() < 48) {
    alphabet.push_back(static_cast<std::uint32_t>(rng.below(65536)));
  }
  TritVector input;
  for (int c = 0; c < 6000; ++c) {
    const std::uint32_t ch = alphabet[rng.below(alphabet.size())];
    for (int b = 15; b >= 0; --b) {
      const bool one = ((ch >> b) & 1) != 0;
      input.push_back(rng.chance(0.3) ? Trit::X : one ? Trit::One : Trit::Zero);
    }
  }
  ASSERT_GT(max_children(Encoder(config), input), 16u);
  for (const Tiebreak tb : kTiebreaks) {
    const auto a = Encoder(config, tb).encode(input);
    const auto b = reference_lzw_encode(config, tb, input);
    const std::string what = "C_C=16 tiebreak=" + std::to_string(static_cast<int>(tb));
    expect_identical(a, b, what.c_str());
    EXPECT_TRUE(verify_roundtrip(input, a).ok);
  }
}

// Hand-built Lookahead tie: at character 28 the match sits at literal 0,
// whose children 4 ('11'), 8 ('00') and 9 ('10') are all compatible with
// the all-X character. Child 4 keeps matching one more character, 8 and 9
// both reach the top score of two. The pick is 8: a later child wins only
// with a strictly higher score, so the first child reaching the top score
// is kept (not the first compatible child, not the last tied one).
TEST(MatchStrategyProperty, LookaheadTieKeepsInsertionOrder) {
  const LzwConfig config{.dict_size = 64, .char_bits = 2, .entry_bits = 16};
  const TritVector input = TritVector::from_string(
      "001111X01100001001001011X1XX00XX101XXX0X00XX1011XXX1X0XXXXXX0X11XXXX00");
  for (const bool fast : {true, false}) {
    std::uint32_t picked = kNoCode;
    std::uint32_t from = kNoCode;
    const StepObserver watch = [&](const EncoderStep& step) {
      if (step.char_index == 28) {
        from = step.buffer_before;
        picked = step.buffer_after;
      }
    };
    const auto result =
        fast ? Encoder(config, Tiebreak::Lookahead)
                   .encode(input, XAssignMode::Dynamic, 1, watch)
             : reference_lzw_encode(config, Tiebreak::Lookahead, input, XAssignMode::Dynamic,
                                    1, watch);
    EXPECT_EQ(from, 0u);
    EXPECT_EQ(picked, 8u);
    EXPECT_TRUE(verify_roundtrip(input, result).ok);
  }
  expect_identical(Encoder(config, Tiebreak::Lookahead).encode(input),
                   reference_lzw_encode(config, Tiebreak::Lookahead, input), "lookahead tie");
}

// `n` trits of `cc`-bit characters drawn from a small seeded alphabet, each
// bit then made X with probability `x_density`; when n is not a multiple of
// cc the tail character is partial. The small alphabet keeps matches long
// and slabs shared, so every tie-break has several compatible children to
// choose among.
TritVector alphabet_cube(std::uint32_t cc, std::size_t n, double x_density,
                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint32_t> alphabet;
  const std::uint64_t values = std::uint64_t{1} << cc;
  while (alphabet.size() < std::min<std::uint64_t>(values, 12)) {
    const auto ch = static_cast<std::uint32_t>(rng.below(values));
    if (std::find(alphabet.begin(), alphabet.end(), ch) == alphabet.end()) {
      alphabet.push_back(ch);
    }
  }
  TritVector v(n);
  std::uint32_t ch = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t bit = cc - 1 - static_cast<std::uint32_t>(i % cc);
    if (i % cc == 0) ch = alphabet[rng.below(alphabet.size())];
    if (!rng.chance(x_density)) v.set(i, ((ch >> bit) & 1u) != 0 ? Trit::One : Trit::Zero);
  }
  return v;
}

// Every rule × every X mode × fixed and variable width, at C_C = 1, 4, 7, 8
// and 16, on inputs whose last character is partial (C_C > 1): the encoder
// equals the reference field for field.
TEST(MatchStrategyProperty, EveryRuleModeAndWidthAcrossCharWidths) {
  for (const std::uint32_t cc : {1u, 4u, 7u, 8u, 16u}) {
    const std::uint32_t literals = 1u << cc;
    for (const bool variable : {false, true}) {
      const LzwConfig config{.dict_size = literals + (cc == 1 ? 62u : 768u),
                             .char_bits = cc,
                             .entry_bits = 12 * cc,
                             .variable_width = variable};
      for (const double x_density : {0.25, 0.6}) {
        const std::size_t n = 700 * cc + cc / 2;
        const TritVector input = alphabet_cube(cc, n, x_density, 100 * cc + variable);
        for (const Tiebreak tb : kTiebreaks) {
          for (const XAssignMode mode : kModes) {
            const std::string what = "C_C=" + std::to_string(cc) +
                                     " variable=" + std::to_string(variable) +
                                     " x=" + std::to_string(x_density) +
                                     " tiebreak=" + std::to_string(static_cast<int>(tb)) +
                                     " mode=" + std::to_string(static_cast<int>(mode));
            expect_identical(Encoder(config, tb).encode(input, mode, 3),
                             reference_lzw_encode(config, tb, input, mode, 3), what.c_str());
          }
        }
      }
    }
  }
}

// Every ternary input of one to four characters at C_C = 1 and 2. The last
// two characters score against fewer than two characters ahead (top < 2),
// and on these lengths the carried chain meets the end of the input at
// every phase.
TEST(LookaheadChainTest, EveryShortInputMatchesReference) {
  for (const std::uint32_t cc : {1u, 2u}) {
    const LzwConfig config{
        .dict_size = (1u << cc) + 16, .char_bits = cc, .entry_bits = 8 * cc};
    for (std::uint32_t chars = 1; chars <= 4; ++chars) {
      const std::uint32_t n = chars * cc;
      std::uint32_t count = 1;
      for (std::uint32_t i = 0; i < n; ++i) count *= 3;
      for (std::uint32_t id = 0; id < count; ++id) {
        TritVector input(n);
        for (std::uint32_t i = 0, rest = id; i < n; ++i, rest /= 3) {
          input.set(i, static_cast<Trit>(rest % 3));
        }
        for (const Tiebreak tb : kTiebreaks) {
          const auto a = Encoder(config, tb).encode(input);
          const auto b = reference_lzw_encode(config, tb, input);
          ASSERT_EQ(a.codes, b.codes) << input.to_string() << " tiebreak "
                                      << static_cast<int>(tb);
          ASSERT_EQ(a.stream.bytes(), b.stream.bytes()) << input.to_string();
        }
      }
    }
  }
}

// Fully specified characters (the exact lookup) and emits interleaved with
// X-bearing characters whose Lookahead picks extend the match: a chain
// carried across an exact lookup or an emit would score the previous
// buffer's grandchildren and pick the wrong child.
TEST(LookaheadChainTest, ChainDroppedAfterEmitAndExactLookup) {
  const LzwConfig config{.dict_size = 512, .char_bits = 3, .entry_bits = 60};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    TritVector input;
    for (int c = 0; c < 3000; ++c) {
      // A two-value alphabet keeps extensions long; a third of the
      // characters are fully specified.
      const std::uint32_t ch = rng.bit() ? 0b101 : 0b100;
      const bool exact = rng.below(3) == 0;
      for (int b = 2; b >= 0; --b) {
        const bool one = ((ch >> b) & 1u) != 0;
        input.push_back(!exact && rng.chance(0.5) ? Trit::X : one ? Trit::One : Trit::Zero);
      }
    }
    const auto a = Encoder(config, Tiebreak::Lookahead).encode(input);
    const auto b = reference_lzw_encode(config, Tiebreak::Lookahead, input);
    expect_identical(a, b, ("seed " + std::to_string(seed)).c_str());
    EXPECT_GT(a.telemetry.probes_fast, 0u);
    EXPECT_GT(a.codes.size(), 100u);
  }
}

// C_C = 1 and 16 with a dictionary that starts full (N = 2^C_C), one that is
// full after its first add (N = 2^C_C + 1), and a small one that fills
// mid-stream, for every rule at fixed and variable width.
TEST(LookaheadChainTest, FullAndNearlyFullDictionaries) {
  for (const std::uint32_t cc : {1u, 16u}) {
    const std::uint32_t literals = 1u << cc;
    for (const std::uint32_t extra : {0u, 1u, 40u}) {
      for (const bool variable : {false, true}) {
        const LzwConfig config{.dict_size = literals + extra,
                               .char_bits = cc,
                               .entry_bits = 8 * cc,
                               .variable_width = variable};
        const TritVector input = alphabet_cube(cc, 400 * cc + cc / 3, 0.5, cc + extra);
        for (const Tiebreak tb : kTiebreaks) {
          const std::string what = "C_C=" + std::to_string(cc) + " N=2^C_C+" +
                                   std::to_string(extra) + " tiebreak=" +
                                   std::to_string(static_cast<int>(tb));
          const auto a = Encoder(config, tb).encode(input);
          expect_identical(a, reference_lzw_encode(config, tb, input), what.c_str());
          const auto adds = std::min<std::size_t>(extra, a.codes.size());
          EXPECT_EQ(a.dict_codes_used, literals + adds) << what;
          EXPECT_TRUE(verify_roundtrip(input, a).ok) << what;
        }
      }
    }
  }
}

}  // namespace
}  // namespace tdc::lzw
