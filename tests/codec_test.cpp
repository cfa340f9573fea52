#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bits/rng.h"
#include "bits/tritvector.h"
#include "codec/codec.h"
#include "codec/lz77.h"
#include "codec/rle.h"
#include "reference_encoders.h"

namespace tdc::codec {
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

// ---------------------------------------------------------------- features

// Per-trit reference for analyze_chunk: counts care and ones, and the runs
// of the repeat-filled stream (an X adopts the previous filled value).
ChunkFeatures analyze_chunk_reference(const TritVector& chunk) {
  ChunkFeatures f;
  f.trits = chunk.size();
  bool have_prev = false;
  bool prev = false;
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    const Trit t = chunk.get(i);
    bool v = prev;
    if (t != Trit::X) {
      ++f.care;
      v = t == Trit::One;
      if (v) ++f.ones;
    }
    if (!have_prev || v != prev) ++f.runs;
    have_prev = true;
    prev = v;
  }
  return f;
}

TEST(ChunkFeaturesTest, AnalyzeChunkMatchesPerTritReference) {
  Rng rng(4096);
  for (int iter = 0; iter < 4000; ++iter) {
    static constexpr double kDensities[] = {0.0, 0.3, 0.9, 1.0};
    const std::size_t n = rng.below(600);
    TritVector chunk = random_cube(n, kDensities[iter % 4], rng.next_u64());
    if (iter % 3 == 0 && n > 2) {
      const std::size_t pos = 1 + rng.below(n - 1);
      chunk = chunk.slice(pos, rng.below(n - pos + 1));
    }
    const ChunkFeatures want = analyze_chunk_reference(chunk);
    const ChunkFeatures got = analyze_chunk(chunk);
    ASSERT_EQ(got.trits, want.trits);
    ASSERT_EQ(got.care, want.care);
    ASSERT_EQ(got.ones, want.ones);
    ASSERT_EQ(got.runs, want.runs) << chunk.to_string();
  }
}

// ---------------------------------------------------------------- LZ77

TEST(Lz77ConfigTest, DerivedQuantities) {
  Lz77Config c{.window_bits = 10, .length_bits = 8};
  EXPECT_EQ(c.window_size(), 1024u);
  EXPECT_EQ(c.max_match(), 255u);
  EXPECT_EQ(c.min_match(), 10u);  // (1+10+8)/2 + 1
}

TEST(Lz77Test, LiteralOnlyInput) {
  // Too short for any match: everything is a literal.
  const auto input = TritVector::from_string("1011");
  const auto r = lz77_encode(input);
  EXPECT_EQ(r.tokens.size(), 4u);
  for (const auto& t : r.tokens) EXPECT_FALSE(t.is_match);
  EXPECT_EQ(lz77_decode_tokens(r.tokens, 4).to_string(), "1011");
}

TEST(Lz77Test, RepetitionCompresses) {
  TritVector input;
  const auto unit = TritVector::from_string("110100101100");
  for (int i = 0; i < 40; ++i) input.append(unit);
  const auto r = lz77_encode(input);
  EXPECT_GT(ratio_percent(input.size(), r.stream.bit_count()), 50.0);
  EXPECT_EQ(lz77_decode(r.stream, input.size(), r.config), input);
}

TEST(Lz77Test, SelfReferentialRun) {
  // A constant run forces offset < length (the classic overlapped copy).
  const TritVector input(3000, Trit::One);
  const auto r = lz77_encode(input);
  EXPECT_GT(ratio_percent(input.size(), r.stream.bit_count()), 90.0);
  bool overlapped = false;
  for (const auto& t : r.tokens) {
    if (t.is_match && t.length > t.offset) overlapped = true;
  }
  EXPECT_TRUE(overlapped);
  EXPECT_EQ(lz77_decode(r.stream, input.size(), r.config), input);
}

TEST(Lz77Test, XAwareMatchingBindsDontCares) {
  // Care bits repeat with period 8 but are sparse; the X-aware matcher
  // should cover nearly everything with back-references.
  Rng rng(5);
  TritVector input(4000);
  for (std::size_t i = 0; i < input.size(); i += 16) input.set(i, Trit::One);
  const auto r = lz77_encode(input);
  const auto decoded = lz77_decode(r.stream, input.size(), r.config);
  EXPECT_TRUE(decoded.fully_specified());
  EXPECT_TRUE(input.covered_by(decoded));
  EXPECT_GT(ratio_percent(input.size(), r.stream.bit_count()), 80.0);
}

TEST(Lz77Test, DecodeRejectsBadOffset) {
  std::vector<Lz77Token> tokens{{.is_match = true, .offset = 5, .length = 3}};
  EXPECT_THROW(lz77_decode_tokens(tokens, 3), std::invalid_argument);
}

TEST(Lz77Test, DecodeRejectsLengthMismatch) {
  std::vector<Lz77Token> tokens{{.is_match = false, .literal = true}};
  EXPECT_THROW(lz77_decode_tokens(tokens, 2), std::invalid_argument);
}

TEST(Lz77Test, EmptyInput) {
  const auto r = lz77_encode(TritVector{});
  EXPECT_TRUE(r.tokens.empty());
  EXPECT_EQ(lz77_decode(r.stream, 0, r.config).size(), 0u);
}

struct Lz77Param {
  std::uint32_t window_bits;
  std::uint32_t length_bits;
  double x_density;
  std::size_t bits;
};

class Lz77Property : public ::testing::TestWithParam<Lz77Param> {};

TEST_P(Lz77Property, RoundTripCoversInput) {
  const auto p = GetParam();
  const Lz77Config c{.window_bits = p.window_bits, .length_bits = p.length_bits};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto input = random_cube(p.bits, p.x_density, seed * 271);
    const auto r = lz77_encode(input, c);
    const auto decoded = lz77_decode(r.stream, input.size(), c);
    ASSERT_EQ(decoded.size(), input.size());
    ASSERT_TRUE(decoded.fully_specified());
    ASSERT_TRUE(input.covered_by(decoded))
        << "seed " << seed << " window " << p.window_bits;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSweep, Lz77Property,
    ::testing::Values(Lz77Param{6, 4, 0.0, 2000}, Lz77Param{6, 4, 0.9, 2000},
                      Lz77Param{10, 8, 0.5, 5000}, Lz77Param{10, 8, 0.95, 5000},
                      Lz77Param{12, 10, 0.85, 20000},
                      Lz77Param{4, 3, 0.7, 1000}));

// ---------------------------------------------------------------- Run codes

TEST(RunCodeTest, GolombHandComputed) {
  // m=4 (Rice): length 11 -> q=2 ("110"), r=3 ("11") -> "11011".
  bits::BitWriter w;
  write_run(w, 11, RleConfig{RunCode::Golomb, 4});
  EXPECT_EQ(w.bit_count(), 5u);
  EXPECT_TRUE(w.bit_at(0));
  EXPECT_TRUE(w.bit_at(1));
  EXPECT_FALSE(w.bit_at(2));
  EXPECT_TRUE(w.bit_at(3));
  EXPECT_TRUE(w.bit_at(4));
}

TEST(RunCodeTest, FdrHandComputed) {
  // Group 1 covers lengths 0..1 with 2-bit codes "0 t".
  bits::BitWriter w0;
  write_run(w0, 0, RleConfig{RunCode::Fdr, 0});
  EXPECT_EQ(w0.bit_count(), 2u);
  // Group 2 covers 2..5: prefix "10", 2-bit tail. Length 5 -> "10 11".
  bits::BitWriter w5;
  write_run(w5, 5, RleConfig{RunCode::Fdr, 0});
  EXPECT_EQ(w5.bit_count(), 4u);
  bits::BitReader r(w5);
  EXPECT_EQ(read_run(r, RleConfig{RunCode::Fdr, 0}), 5u);
}

class RunCodeRoundTrip : public ::testing::TestWithParam<RleConfig> {};

TEST_P(RunCodeRoundTrip, AllSmallLengthsAndSamples) {
  const RleConfig c = GetParam();
  bits::BitWriter w;
  std::vector<std::uint64_t> lengths;
  for (std::uint64_t l = 0; l < 300; ++l) lengths.push_back(l);
  for (std::uint64_t l : {1000ULL, 4096ULL, 123456ULL}) lengths.push_back(l);
  for (const auto l : lengths) write_run(w, l, c);
  bits::BitReader r(w);
  for (const auto l : lengths) ASSERT_EQ(read_run(r, c), l);
  EXPECT_TRUE(r.exhausted());
}

INSTANTIATE_TEST_SUITE_P(
    Codes, RunCodeRoundTrip,
    ::testing::Values(RleConfig{RunCode::Golomb, 2}, RleConfig{RunCode::Golomb, 3},
                      RleConfig{RunCode::Golomb, 4}, RleConfig{RunCode::Golomb, 7},
                      RleConfig{RunCode::Golomb, 16}, RleConfig{RunCode::Golomb, 64},
                      RleConfig{RunCode::Fdr, 0}));

// ---------------------------------------------------------------- RLE codecs

TEST(GolombRleTest, ZeroDominatedInputCompresses) {
  Rng rng(9);
  TritVector input(20000);
  for (std::size_t i = 0; i < input.size(); ++i) {
    if (rng.chance(0.02)) input.set(i, Trit::One);
  }
  const auto r = golomb_rle_encode(input, RleConfig{RunCode::Golomb, 32});
  EXPECT_GT(ratio_percent(input.size(), r.stream.bit_count()), 60.0);
  const auto decoded = golomb_rle_decode(r.stream, input.size(), r.config);
  EXPECT_TRUE(input.covered_by(decoded));
}

TEST(GolombRleTest, TrailingZerosNoTerminator) {
  const auto input = TritVector::from_string("010000000");
  const auto r = golomb_rle_encode(input, RleConfig{RunCode::Golomb, 2});
  EXPECT_EQ(r.runs, (std::vector<std::uint64_t>{1, 7}));
  EXPECT_EQ(golomb_rle_decode(r.stream, input.size(), r.config), input);
}

TEST(GolombRleTest, AllOnes) {
  const TritVector input(64, Trit::One);
  const auto r = golomb_rle_encode(input, RleConfig{RunCode::Golomb, 4});
  EXPECT_EQ(r.runs.size(), 64u);
  EXPECT_EQ(golomb_rle_decode(r.stream, input.size(), r.config), input);
}

TEST(AltRleTest, HandComputedRuns) {
  const auto input = TritVector::from_string("1100011");
  const auto r = alternating_rle_encode(input, RleConfig{RunCode::Golomb, 2});
  // Starts with an empty 0-run, then 2 ones, 3 zeros, 2 ones.
  EXPECT_EQ(r.runs, (std::vector<std::uint64_t>{0, 2, 3, 2}));
  EXPECT_EQ(alternating_rle_decode(r.stream, input.size(), r.config), input);
}

TEST(AltRleTest, RepeatFillLengthensRuns) {
  // 1XXX0XXX1XXX -> repeat-fill -> 111100001111: three runs.
  const auto input = TritVector::from_string("1XXX0XXX1XXX");
  const auto r = alternating_rle_encode(input, RleConfig{RunCode::Golomb, 4});
  EXPECT_EQ(r.runs, (std::vector<std::uint64_t>{0, 4, 4, 4}));
  const auto decoded = alternating_rle_decode(r.stream, input.size(), r.config);
  EXPECT_TRUE(input.covered_by(decoded));
}

struct RleParam {
  double x_density;
  double one_bias;  // probability that a care bit is 1
  std::size_t bits;
};

class RleProperty : public ::testing::TestWithParam<RleParam> {};

TEST_P(RleProperty, BothCodecsRoundTrip) {
  const auto p = GetParam();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 911);
    TritVector input(p.bits);
    for (std::size_t i = 0; i < p.bits; ++i) {
      if (!rng.chance(p.x_density)) {
        input.set(i, rng.chance(p.one_bias) ? Trit::One : Trit::Zero);
      }
    }
    const auto g = best_golomb_rle(input);
    ASSERT_TRUE(input.covered_by(
        golomb_rle_decode(g.stream, input.size(), g.config)));
    const auto a = best_alternating_rle(input);
    ASSERT_TRUE(input.covered_by(
        alternating_rle_decode(a.stream, input.size(), a.config)));
  }
}

INSTANTIATE_TEST_SUITE_P(DensitySweep, RleProperty,
                         ::testing::Values(RleParam{0.0, 0.5, 4000},
                                           RleParam{0.5, 0.5, 4000},
                                           RleParam{0.9, 0.5, 8000},
                                           RleParam{0.9, 0.1, 8000},
                                           RleParam{0.95, 0.9, 8000},
                                           RleParam{1.0, 0.5, 2000}));

// ---------------------------------------------------------------- tuned RLE

// Field-for-field equality of two RLE results.
void expect_same_rle(const RleResult& a, const RleResult& b, const std::string& what) {
  EXPECT_EQ(a.config.run_code, b.config.run_code) << what;
  EXPECT_EQ(a.config.golomb_m, b.config.golomb_m) << what;
  EXPECT_EQ(a.runs, b.runs) << what;
  EXPECT_EQ(a.stream.bit_count(), b.stream.bit_count()) << what;
  EXPECT_EQ(a.stream.bytes(), b.stream.bytes()) << what;
  EXPECT_EQ(a.original_bits, b.original_bits) << what;
  EXPECT_STREQ(a.name, b.name) << what;
}

RleResult alternating(const TritVector& in, const RleConfig& c) {
  return alternating_rle_encode(in, c);
}
RleResult golomb(const TritVector& in, const RleConfig& c) { return golomb_rle_encode(in, c); }

// Both tuned coders, sized from one run pass, equal the seven-encode
// reference on empty, all-X, fully specified and mixed vectors whose
// lengths straddle 64-trit words.
TEST(TunedRleTest, OnePassMatchesSevenEncodeReference) {
  std::vector<std::pair<std::string, TritVector>> inputs;
  inputs.emplace_back("empty", TritVector());
  inputs.emplace_back("all_x", TritVector(1000));
  inputs.emplace_back("all_one", TritVector(300, Trit::One));
  std::uint64_t seed = 1;
  for (const std::size_t n : {1u, 63u, 64u, 65u, 129u, 4096u, 5000u}) {
    for (const double x : {0.0, 0.5, 0.9, 0.99}) {
      inputs.emplace_back("n=" + std::to_string(n) + " x=" + std::to_string(x),
                          random_cube(n, x, seed++));
    }
  }
  for (const auto& [what, input] : inputs) {
    expect_same_rle(best_alternating_rle(input),
                    reference::reference_best_rle(input, alternating), "alternating " + what);
    expect_same_rle(best_golomb_rle(input), reference::reference_best_rle(input, golomb),
                    "golomb " + what);
  }
}

// Every fully specified vector of up to 12 trits. Short runs make several
// grid points cost the same minimum; the tie must go to the earliest point,
// as the seven-encode reference's strict < does, and the sweep must meet
// such ties.
TEST(TunedRleTest, GridTiesGoToTheEarliestPoint) {
  int ties = 0;
  for (std::uint32_t n = 0; n <= 12; ++n) {
    for (std::uint32_t id = 0; id < (1u << n); ++id) {
      TritVector input(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        input.set(i, ((id >> i) & 1u) != 0 ? Trit::One : Trit::Zero);
      }
      const RleResult want = reference::reference_best_rle(input, alternating);
      const RleResult got = best_alternating_rle(input);
      ASSERT_EQ(got.config.run_code, want.config.run_code) << input.to_string();
      ASSERT_EQ(got.config.golomb_m, want.config.golomb_m) << input.to_string();
      ASSERT_EQ(got.stream.bytes(), want.stream.bytes()) << input.to_string();
      const RleResult gw = reference::reference_best_rle(input, golomb);
      const RleResult gg = best_golomb_rle(input);
      ASSERT_EQ(gg.config.run_code, gw.config.run_code) << input.to_string();
      ASSERT_EQ(gg.config.golomb_m, gw.config.golomb_m) << input.to_string();
      ASSERT_EQ(gg.stream.bytes(), gw.stream.bytes()) << input.to_string();
      int at_min = 0;
      for (const std::uint32_t m : {4u, 8u, 16u, 32u, 64u, 128u}) {
        at_min += alternating(input, RleConfig{RunCode::Golomb, m}).stream.bit_count() ==
                  want.stream.bit_count();
      }
      at_min += alternating(input, RleConfig{RunCode::Fdr, 0}).stream.bit_count() ==
                want.stream.bit_count();
      ties += at_min > 1;
    }
  }
  EXPECT_GT(ties, 100);
  // Runs of 8: Golomb m = 4, 8 and 16 all spend 5 bits a run; m = 4 wins.
  const auto eights = TritVector::from_string("000000001111111100000000");
  EXPECT_EQ(best_alternating_rle(eights).config.golomb_m, 4u);
  EXPECT_EQ(alternating(eights, RleConfig{RunCode::Golomb, 16}).stream.bit_count(),
            best_alternating_rle(eights).stream.bit_count());
}

TEST(BaselineShapeTest, HighXFavorsEveryCodec) {
  // Sanity for the Table 1 shape: with 90 % X everything compresses well,
  // and the selective grid search never loses to a fixed parameter.
  Rng rng(33);
  TritVector input(30000);
  for (std::size_t i = 0; i < input.size(); ++i) {
    if (!rng.chance(0.9)) input.set(i, rng.bit() ? Trit::One : Trit::Zero);
  }
  const auto best = best_alternating_rle(input);
  const auto fixed = alternating_rle_encode(input, RleConfig{RunCode::Golomb, 16});
  EXPECT_LE(best.stream.bit_count(), fixed.stream.bit_count());
  EXPECT_GT(ratio_percent(input.size(), best.stream.bit_count()), 20.0);
}

}  // namespace
}  // namespace tdc::codec
