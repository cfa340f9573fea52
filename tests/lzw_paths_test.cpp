// Property tests for the encoder's two match strategies: the Indexed fast
// path (slab match kernel + streaming CharCursor) must produce
// byte-identical output to the LegacyScan reference (child-by-child walk of
// the insertion-ordered list) for every tie-break and X-assignment
// combination — the bit-identical invariant the throughput work is built
// on.
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

namespace tdc::lzw {
namespace {

using bits::Rng;
using bits::Trit;
using bits::TritVector;

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
          const Encoder fast(config, tb, MatchStrategy::Indexed);
          const Encoder reference(config, tb, MatchStrategy::LegacyScan);
          const auto a = fast.encode(input, mode, /*rng_seed=*/seed);
          const auto b = reference.encode(input, mode, /*rng_seed=*/seed);
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
  const auto a = Encoder(config, Tiebreak::First, MatchStrategy::Indexed)
                     .encode(input);
  const auto b = Encoder(config, Tiebreak::First, MatchStrategy::LegacyScan)
                     .encode(input);
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
  const auto a = Encoder(config, Tiebreak::First, MatchStrategy::Indexed)
                     .encode(input);
  const auto b = Encoder(config, Tiebreak::First, MatchStrategy::LegacyScan)
                     .encode(input);
  expect_identical(a, b, "tail partial char");
}

// Adversarial X-density sweep: fully specified (x=0, the SWAR all-care fast
// path), all-X (x=1, every char matches every entry — dictionary growth is
// pure tiebreak policy), and blocky runs that flip between the two regimes
// at non-char-aligned boundaries. Every tiebreak × X-assign pair must keep
// the Indexed path bit-identical to LegacyScan AND decode-roundtrip clean.
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
        const Encoder fast(config, tb, MatchStrategy::Indexed);
        const Encoder reference(config, tb, MatchStrategy::LegacyScan);
        const auto a = fast.encode(input, mode, /*rng_seed=*/7);
        const auto b = reference.encode(input, mode, /*rng_seed=*/7);
        expect_identical(a, b, what.c_str());
        const auto check = verify_roundtrip(input, a);
        EXPECT_TRUE(check.ok) << what;
      }
    }
  }
}

// Variable-width streams under the same adversarial corpora: width bumps
// land at different codes per tiebreak, so this pins the batched BitWriter's
// mid-stream width changes against the per-bit legacy emission.
TEST(MatchStrategyProperty, AdversarialDensitiesVariableWidthIdentical) {
  const LzwConfig config{.dict_size = 1024, .char_bits = 7, .entry_bits = 63,
                         .variable_width = true};
  const TritVector inputs[] = {random_cube(4000, 0.0, 51),
                               random_cube(4000, 1.0, 52),
                               blocky_cube(4000, 11, 53)};
  for (const TritVector& input : inputs) {
    for (const Tiebreak tb : kTiebreaks) {
      const auto a =
          Encoder(config, tb, MatchStrategy::Indexed).encode(input);
      const auto b =
          Encoder(config, tb, MatchStrategy::LegacyScan).encode(input);
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
    const auto a = Encoder(config, tb, MatchStrategy::Indexed).encode(input);
    const auto b = Encoder(config, tb, MatchStrategy::LegacyScan).encode(input);
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
    const auto a = Encoder(config, tb, MatchStrategy::Indexed).encode(input);
    const auto b = Encoder(config, tb, MatchStrategy::LegacyScan).encode(input);
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
  for (const MatchStrategy strategy : {MatchStrategy::Indexed, MatchStrategy::LegacyScan}) {
    std::uint32_t picked = kNoCode;
    std::uint32_t from = kNoCode;
    const auto result = Encoder(config, Tiebreak::Lookahead, strategy)
                            .encode(input, XAssignMode::Dynamic, 1,
                                    [&](const EncoderStep& step) {
                                      if (step.char_index == 28) {
                                        from = step.buffer_before;
                                        picked = step.buffer_after;
                                      }
                                    });
    EXPECT_EQ(from, 0u);
    EXPECT_EQ(picked, 8u);
    EXPECT_TRUE(verify_roundtrip(input, result).ok);
  }
  const Encoder indexed(config, Tiebreak::Lookahead, MatchStrategy::Indexed);
  const Encoder legacy(config, Tiebreak::Lookahead, MatchStrategy::LegacyScan);
  expect_identical(indexed.encode(input), legacy.encode(input), "lookahead tie");
}

}  // namespace
}  // namespace tdc::lzw
