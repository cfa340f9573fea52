#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bits/bitstream.h"
#include "bits/rng.h"
#include "bits/simd.h"
#include "bits/trit.h"
#include "bits/tritvector.h"
#include "bits/wordops.h"
#include "core/error.h"

namespace tdc::bits {
namespace {

// ---------------------------------------------------------------- Trit

TEST(TritTest, CharRoundTrip) {
  EXPECT_EQ(to_char(Trit::Zero), '0');
  EXPECT_EQ(to_char(Trit::One), '1');
  EXPECT_EQ(to_char(Trit::X), 'X');
  EXPECT_EQ(trit_from_char('0'), Trit::Zero);
  EXPECT_EQ(trit_from_char('1'), Trit::One);
  EXPECT_EQ(trit_from_char('X'), Trit::X);
  EXPECT_EQ(trit_from_char('x'), Trit::X);
  EXPECT_EQ(trit_from_char('-'), Trit::X);
}

TEST(TritTest, ValidChars) {
  EXPECT_TRUE(is_trit_char('0'));
  EXPECT_TRUE(is_trit_char('1'));
  EXPECT_TRUE(is_trit_char('x'));
  EXPECT_TRUE(is_trit_char('X'));
  EXPECT_TRUE(is_trit_char('-'));
  EXPECT_FALSE(is_trit_char('2'));
  EXPECT_FALSE(is_trit_char(' '));
}

TEST(TritTest, Compatibility) {
  EXPECT_TRUE(compatible(Trit::Zero, Trit::Zero));
  EXPECT_TRUE(compatible(Trit::One, Trit::One));
  EXPECT_FALSE(compatible(Trit::Zero, Trit::One));
  EXPECT_TRUE(compatible(Trit::X, Trit::Zero));
  EXPECT_TRUE(compatible(Trit::One, Trit::X));
  EXPECT_TRUE(compatible(Trit::X, Trit::X));
}

TEST(TritTest, Merge) {
  EXPECT_EQ(merge(Trit::X, Trit::One), Trit::One);
  EXPECT_EQ(merge(Trit::Zero, Trit::X), Trit::Zero);
  EXPECT_EQ(merge(Trit::X, Trit::X), Trit::X);
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 4);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(13), 13u);
  }
}

TEST(RngTest, BelowCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const auto v = rng.range(10, 12);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 12u);
  }
}

TEST(RngTest, RealInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double r = rng.real();
    EXPECT_GE(r, 0.0);
    EXPECT_LT(r, 1.0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

// ---------------------------------------------------------------- BitWriter / BitReader

TEST(BitstreamTest, SingleBits) {
  BitWriter w;
  w.write_bit(true);
  w.write_bit(false);
  w.write_bit(true);
  EXPECT_EQ(w.bit_count(), 3u);
  EXPECT_TRUE(w.bit_at(0));
  EXPECT_FALSE(w.bit_at(1));
  EXPECT_TRUE(w.bit_at(2));
}

TEST(BitstreamTest, MsbFirstByteLayout) {
  BitWriter w;
  w.write(0b10110001, 8);
  ASSERT_EQ(w.bytes().size(), 1u);
  EXPECT_EQ(w.bytes()[0], 0b10110001);
}

TEST(BitstreamTest, UnalignedValuesRoundTrip) {
  BitWriter w;
  w.write(0b101, 3);
  w.write(0b0110110, 7);
  w.write(0x3FF, 10);
  w.write(1, 1);
  BitReader r(w);
  EXPECT_EQ(r.read(3), 0b101u);
  EXPECT_EQ(r.read(7), 0b0110110u);
  EXPECT_EQ(r.read(10), 0x3FFu);
  EXPECT_EQ(r.read(1), 1u);
  EXPECT_TRUE(r.exhausted());
}

TEST(BitstreamTest, WideValues) {
  BitWriter w;
  const std::uint64_t v = 0xdeadbeefcafef00dULL;
  w.write(v, 64);
  BitReader r(w);
  EXPECT_EQ(r.read(64), v);
}

TEST(BitstreamTest, RemainingAndPosition) {
  BitWriter w;
  w.write(0xab, 8);
  BitReader r(w);
  EXPECT_EQ(r.remaining(), 8u);
  r.read(3);
  EXPECT_EQ(r.position(), 3u);
  EXPECT_EQ(r.remaining(), 5u);
}

TEST(BitstreamTest, RandomizedRoundTrip) {
  Rng rng(123);
  BitWriter w;
  std::vector<std::pair<std::uint64_t, unsigned>> items;
  for (int i = 0; i < 2000; ++i) {
    const unsigned width = 1 + static_cast<unsigned>(rng.below(32));
    const std::uint64_t value = rng.next_u64() & ((width == 64) ? ~0ULL : ((1ULL << width) - 1));
    items.emplace_back(value, width);
    w.write(value, width);
  }
  BitReader r(w);
  for (const auto& [value, width] : items) {
    ASSERT_EQ(r.read(width), value);
  }
  EXPECT_TRUE(r.exhausted());
}

// A read past the end is a typed error in every build, not an assert that
// release builds compile out: decoders of untrusted payloads rely on it.
TEST(BitstreamTest, ReadPastEndRaisesCodeStreamTruncated) {
  BitWriter w;
  w.write(0b1011, 4);
  BitReader bits(w);
  EXPECT_EQ(bits.read(4), 0b1011u);
  try {
    bits.read_bit();
    FAIL() << "read_bit past the end did not raise";
  } catch (const TdcErrorBase& e) {
    EXPECT_EQ(e.error().kind, ErrorKind::CodeStreamTruncated);
    EXPECT_EQ(e.error().bit_offset, 4);
  }
  EXPECT_EQ(bits.position(), 4u);

  // A read that straddles the end raises before consuming anything.
  BitReader straddle(w);
  EXPECT_EQ(straddle.read(3), 0b101u);
  try {
    straddle.read(2);
    FAIL() << "read(2) straddling the end did not raise";
  } catch (const TdcErrorBase& e) {
    EXPECT_EQ(e.error().kind, ErrorKind::CodeStreamTruncated);
  }
  EXPECT_EQ(straddle.position(), 3u);
  EXPECT_EQ(straddle.read(1), 1u);

  // The empty stream and a declared length shorter than the bytes held.
  const std::vector<std::uint8_t> none;
  BitReader empty(none, 0);
  EXPECT_THROW(empty.read_bit(), std::invalid_argument);
  EXPECT_THROW(empty.read(1), std::invalid_argument);
  EXPECT_EQ(empty.read(0), 0u);
  const std::vector<std::uint8_t> byte{0xff};
  BitReader short_count(byte, 5);
  EXPECT_EQ(short_count.read(5), 0x1fu);
  EXPECT_THROW(short_count.read_bit(), std::invalid_argument);
}

// ---------------------------------------------------------------- TritVector

TEST(TritVectorTest, ConstructFilled) {
  TritVector v(130, Trit::One);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_TRUE(v.fully_specified());
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(v.get(i), Trit::One);
}

TEST(TritVectorTest, ConstructDefaultAllX) {
  TritVector v(70);
  EXPECT_EQ(v.care_count(), 0u);
  EXPECT_EQ(v.x_count(), 70u);
  EXPECT_DOUBLE_EQ(v.x_density(), 1.0);
}

// Per-character text references: the property oracle for the
// word-parallel text kernels behind from_string / to_string.

std::size_t words_for(std::size_t n) { return (n + 63) / 64; }

/// Parses like simd::parse_trit_chars, one character at a time.
std::size_t parse_reference(const char* s, std::size_t n, std::vector<std::uint64_t>& care,
                            std::vector<std::uint64_t>& value) {
  care.assign(words_for(n), 0);
  value.assign(words_for(n), 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_trit_char(s[i])) return i;
    const Trit t = trit_from_char(s[i]);
    if (is_care(t)) care[i / 64] |= 1ULL << (i % 64);
    if (t == Trit::One) value[i / 64] |= 1ULL << (i % 64);
  }
  return n;
}

/// The trit vector of `s`, built one set() at a time.
TritVector per_char_vector(const std::string& s) {
  TritVector v(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) v.set(i, trit_from_char(s[i]));
  return v;
}

/// Random text over all five accepted characters, in runs of three kinds:
/// any character, X only ('X' 'x' '-') and care only ('0' '1').
std::string random_trit_text(Rng& rng, std::size_t n) {
  static constexpr std::string_view kRunAlphabets[] = {"01Xx-", "Xx-", "01"};
  std::string s(n, 'X');
  for (std::size_t i = 0; i < n;) {
    const std::string_view alphabet = kRunAlphabets[rng.below(3)];
    for (std::uint64_t run = 1 + rng.below(80); run > 0 && i < n; --run, ++i) {
      s[i] = alphabet[rng.below(alphabet.size())];
    }
  }
  return s;
}

/// Lengths that hit every tail size of the 8-byte SWAR step and the
/// 32/64-byte vector steps: 0-130, then within +-1 of each multiple of 8
/// up to 1024.
std::vector<std::size_t> text_lengths() {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 130; ++n) lengths.push_back(n);
  for (std::size_t m = 136; m <= 1024; m += 8) {
    for (const std::size_t n : {m - 1, m, m + 1}) lengths.push_back(n);
  }
  return lengths;
}

TEST(TritVectorTest, FromStringAndBack) {
  const std::string s = "01XX10x-01";
  const TritVector v = TritVector::from_string(s);
  EXPECT_EQ(v.to_string(), "01XX10XX01");
  EXPECT_EQ(v.size(), 10u);
  EXPECT_EQ(v.care_count(), 6u);

  // Both directions against the per-character reference. operator==
  // compares the storage words, so equality with a set()-built vector also
  // proves the storage past size() zero.
  Rng rng(811);
  for (const std::size_t n : text_lengths()) {
    const std::string text = random_trit_text(rng, n);
    const TritVector parsed = TritVector::from_string(text);
    const TritVector want = per_char_vector(text);
    ASSERT_EQ(parsed, want) << "n=" << n;
    std::string canonical(n, 'X');
    for (std::size_t i = 0; i < n; ++i) canonical[i] = to_char(want.get(i));
    ASSERT_EQ(parsed.to_string(), canonical) << "n=" << n;
    ASSERT_EQ(TritVector::from_string(parsed.to_string()), parsed) << "n=" << n;
  }
}

TEST(TritVectorTest, FromStringRejectsBadChars) {
  EXPECT_THROW(TritVector::from_string("012"), std::invalid_argument);

  // One bad byte at every position: the dispatched kernel, the scalar
  // kernel and the per-character reference agree on its index, and
  // from_string names exactly that byte. A second bad byte later on never
  // wins over the first.
  Rng rng(812);
  const char bad_bytes[] = {'2', '\r', ' ', '\0', static_cast<char>(0x80),
                            static_cast<char>(0xFF)};
  std::vector<std::uint64_t> care;
  std::vector<std::uint64_t> value;
  for (std::size_t n = 1; n <= 130; ++n) {
    care.resize(words_for(n));
    value.resize(words_for(n));
    for (std::size_t pos = 0; pos < n; ++pos) {
      for (const char bad : bad_bytes) {
        std::string text = random_trit_text(rng, n);
        text[pos] = bad;
        if (pos + 2 < n && rng.bit()) text[pos + 2] = bad_bytes[rng.below(6)];
        ASSERT_EQ(simd::parse_trit_chars(text.data(), n, care.data(), value.data()), pos)
            << "n=" << n;
        ASSERT_EQ(simd::detail::parse_trit_chars_scalar(text.data(), n, care.data(),
                                                        value.data()),
                  pos)
            << "n=" << n;
        ASSERT_EQ(parse_reference(text.data(), n, care, value), pos) << "n=" << n;
        try {
          (void)TritVector::from_string(text);
          FAIL() << "accepted byte " << static_cast<int>(bad) << " at " << pos;
        } catch (const DecodeError& e) {
          ASSERT_EQ(e.error().kind, ErrorKind::InvalidInput);
          ASSERT_EQ(e.error().message,
                    std::string("TritVector::from_string: bad character '") + bad + "'");
        }
      }
    }
  }
}

TEST(TritVectorTest, SetGetAcrossWordBoundary) {
  TritVector v(200);
  v.set(63, Trit::One);
  v.set(64, Trit::Zero);
  v.set(127, Trit::One);
  v.set(128, Trit::X);
  EXPECT_EQ(v.get(63), Trit::One);
  EXPECT_EQ(v.get(64), Trit::Zero);
  EXPECT_EQ(v.get(127), Trit::One);
  EXPECT_EQ(v.get(128), Trit::X);
}

TEST(TritVectorTest, SetXClearsValuePlane) {
  TritVector v(4, Trit::One);
  v.set(2, Trit::X);
  // Normal form: an X position must not retain a stale value bit.
  EXPECT_EQ(v.word(0, 4), 0b1101u);
}

TEST(TritVectorTest, PushBackAndAppend) {
  TritVector a;
  a.push_back(Trit::One);
  a.push_back(Trit::X);
  TritVector b = TritVector::from_string("01");
  a.append(b);
  EXPECT_EQ(a.to_string(), "1X01");
}

TEST(TritVectorTest, CompatibilityPredicate) {
  const auto a = TritVector::from_string("0X1X");
  const auto b = TritVector::from_string("011X");
  const auto c = TritVector::from_string("1X1X");
  EXPECT_TRUE(a.compatible_with(b));
  EXPECT_TRUE(b.compatible_with(a));
  EXPECT_FALSE(a.compatible_with(c));
  EXPECT_FALSE(a.compatible_with(TritVector::from_string("0X1")));  // size
}

TEST(TritVectorTest, CoveredBy) {
  const auto cube = TritVector::from_string("0X1X");
  const auto full = TritVector::from_string("0011");
  EXPECT_TRUE(cube.covered_by(full));
  EXPECT_FALSE(full.covered_by(cube));  // full specifies bits cube lacks
  EXPECT_FALSE(cube.covered_by(TritVector::from_string("0001")));
}

TEST(TritVectorTest, MergeIn) {
  auto a = TritVector::from_string("0XX1");
  const auto b = TritVector::from_string("0X01");
  a.merge_in(b);
  EXPECT_EQ(a.to_string(), "0X01");
}

TEST(TritVectorTest, Slice) {
  const auto v = TritVector::from_string("01XX10");
  EXPECT_EQ(v.slice(1, 4).to_string(), "1XX1");
  EXPECT_EQ(v.slice(0, 0).size(), 0u);
}

TEST(TritVectorTest, FilledModes) {
  const auto v = TritVector::from_string("0XX1");
  EXPECT_EQ(v.filled(Trit::Zero).to_string(), "0001");
  EXPECT_EQ(v.filled(Trit::One).to_string(), "0111");
  EXPECT_EQ(v.filled_repeat_last().to_string(), "0001");
  EXPECT_EQ(TritVector::from_string("X1XX0X").filled_repeat_last().to_string(),
            "011100");
}

TEST(TritVectorTest, FilledRandomIsSpecifiedAndCompatible) {
  Rng rng(77);
  TritVector v(500);
  for (std::size_t i = 0; i < v.size(); i += 3) v.set(i, Trit::One);
  const TritVector f = v.filled_random(rng);
  EXPECT_TRUE(f.fully_specified());
  EXPECT_TRUE(v.covered_by(f));
}

TEST(TritVectorTest, FilledPreservesTailInvariant) {
  // filled() must not set bits past size(), or word-parallel ops would break.
  TritVector v(65);
  const TritVector f = v.filled(Trit::One);
  TritVector g = f;
  g.push_back(Trit::X);
  EXPECT_EQ(g.get(65), Trit::X);
  EXPECT_EQ(f.care_count(), 65u);
}

// Per-trit reference for the word-parallel repeat fill: each X takes the
// previous filled value, 0 before the first care bit.
TritVector repeat_fill_reference(const TritVector& v) {
  TritVector out = v;
  Trit last = Trit::Zero;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const Trit t = out.get(i);
    if (t == Trit::X) {
      out.set(i, last);
    } else {
      last = t;
    }
  }
  return out;
}

std::size_t repeat_fill_runs_reference(const TritVector& v) {
  const TritVector filled = repeat_fill_reference(v);
  std::size_t runs = 0;
  for (std::size_t i = 0; i < filled.size(); ++i) {
    if (i == 0 || filled.get(i) != filled.get(i - 1)) ++runs;
  }
  return runs;
}

// Property: filled_repeat_last() and repeat_fill_runs() equal the per-trit
// loops on random vectors shorter than 300 trits at four X densities, taken
// whole and as odd-offset slices (so care runs straddle word edges at every
// phase), plus long all-X stretches that carry one value across many words.
TEST(TritVectorTest, PropertyRepeatFillMatchesPerTritReference) {
  Rng rng(9090);
  for (int iter = 0; iter < 20000; ++iter) {
    static constexpr double kDensities[] = {0.0, 0.5, 0.9, 0.99};
    const double x_density = kDensities[iter % 4];
    const std::size_t n = rng.below(300);
    TritVector v(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (!rng.chance(x_density)) v.set(i, rng.bit() ? Trit::One : Trit::Zero);
    }
    if (iter % 2 == 1 && n > 1) {
      const std::size_t pos = 1 + 2 * rng.below(n / 2);
      v = v.slice(pos, rng.below(n - pos + 1));
    }
    const TritVector filled = v.filled_repeat_last();
    ASSERT_EQ(filled, repeat_fill_reference(v)) << v.to_string();
    ASSERT_TRUE(filled.fully_specified());
    ASSERT_EQ(v.repeat_fill_runs(), repeat_fill_runs_reference(v)) << v.to_string();
    const std::string text = v.to_string();
    ASSERT_EQ(v.ones_count(),
              static_cast<std::size_t>(std::count(text.begin(), text.end(), '1')));
  }
  TritVector sparse(1000);
  sparse.set(3, Trit::One);
  sparse.set(700, Trit::Zero);
  EXPECT_EQ(sparse.filled_repeat_last(), repeat_fill_reference(sparse));
  EXPECT_EQ(sparse.repeat_fill_runs(), 3u);
  EXPECT_EQ(TritVector().repeat_fill_runs(), 0u);
  EXPECT_EQ(TritVector(70).repeat_fill_runs(), 1u);
}

TEST(TritVectorTest, WordAndCareWord) {
  const auto v = TritVector::from_string("1X01");
  EXPECT_EQ(v.word(0, 4), 0b1001u);       // X reads 0
  EXPECT_EQ(v.care_word(0, 4), 0b1011u);  // X position unmasked
  // Reading past the end behaves as implicit X padding.
  EXPECT_EQ(v.word(2, 4), 0b0100u);
  EXPECT_EQ(v.care_word(2, 4), 0b1100u);
}

TEST(TritVectorTest, EqualityIsExact) {
  const auto a = TritVector::from_string("0X1");
  const auto b = TritVector::from_string("0X1");
  const auto c = TritVector::from_string("001");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // X != 0 even though compatible
}

TEST(TritVectorTest, DensityStats) {
  const auto v = TritVector::from_string("XX01XXXX10");
  EXPECT_EQ(v.care_count(), 4u);
  EXPECT_EQ(v.x_count(), 6u);
  EXPECT_DOUBLE_EQ(v.x_density(), 0.6);
}

// ---------------------------------------------------------------- CharCursor

TEST(CharCursorTest, MatchesWordAndCareWord) {
  const auto v = TritVector::from_string("1X01X0");
  CharCursor cur(v, 4);
  EXPECT_EQ(cur.char_count(), 2u);  // 6 trits -> 2 chars, tail X-padded
  const auto c0 = cur.next();
  EXPECT_EQ(c0.value, v.word(0, 4));
  EXPECT_EQ(c0.care, v.care_word(0, 4));
  const auto c1 = cur.next();
  EXPECT_EQ(c1.value, v.word(4, 4));
  EXPECT_EQ(c1.care, v.care_word(4, 4));
  EXPECT_TRUE(cur.done());
}

TEST(CharCursorTest, RandomAccessDoesNotMoveCursor) {
  const auto v = TritVector::from_string("01X110X0");
  CharCursor cur(v, 2);
  EXPECT_EQ(cur.at(3).value, v.word(6, 2));
  EXPECT_EQ(cur.index(), 0u);
  cur.next();
  EXPECT_EQ(cur.index(), 1u);
}

// Property: across sizes, widths, and densities — including characters
// straddling 64-bit word boundaries and X-padded tails — the cursor yields
// exactly the word()/care_word() slices.
TEST(CharCursorTest, PropertyMatchesSliceReference) {
  Rng rng(99);
  for (const std::size_t n : {1u, 63u, 64u, 65u, 300u, 1003u}) {
    for (const std::uint32_t cc : {1u, 2u, 5u, 7u, 13u, 16u}) {
      TritVector v(n);
      for (std::size_t i = 0; i < n; ++i) {
        v.set(i, static_cast<Trit>(rng.below(3)));
      }
      CharCursor cur(v, cc);
      EXPECT_EQ(cur.char_count(), (n + cc - 1) / cc);
      for (std::uint64_t k = 0; !cur.done(); ++k) {
        const auto c = cur.next();
        ASSERT_EQ(c.value, v.word(k * cc, cc)) << "n=" << n << " cc=" << cc
                                               << " k=" << k;
        ASSERT_EQ(c.care, v.care_word(k * cc, cc)) << "n=" << n << " cc=" << cc
                                                   << " k=" << k;
      }
    }
  }
}

// Property: random set/get sequences behave like a reference vector.
TEST(TritVectorTest, PropertyMatchesReferenceModel) {
  Rng rng(2024);
  TritVector v(300);
  std::vector<Trit> ref(300, Trit::X);
  for (int step = 0; step < 5000; ++step) {
    const std::size_t i = rng.below(300);
    const Trit t = static_cast<Trit>(rng.below(3));
    v.set(i, t);
    ref[i] = t;
  }
  for (std::size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(v.get(i), ref[i]);
  std::size_t care = 0;
  for (const Trit t : ref) care += is_care(t);
  EXPECT_EQ(v.care_count(), care);

  // Word-parallel append and slice against per-trit push_back references,
  // at every bit offset 0-63 of the receiving (append) or source (slice)
  // side, with X-carrying operands and empty sides. operator== compares the
  // storage words, so it also pins the normal form: no stray bits past
  // size().
  const auto random_trits = [&rng](std::size_t n) {
    TritVector t(n);
    for (std::size_t i = 0; i < n; ++i) t.set(i, static_cast<Trit>(rng.below(3)));
    return t;
  };
  const auto per_trit = [](const TritVector& from, std::size_t pos, std::size_t len,
                           TritVector into) {
    for (std::size_t i = 0; i < len; ++i) into.push_back(from.get(pos + i));
    return into;
  };
  for (std::size_t offset = 0; offset < 64; ++offset) {
    for (const std::size_t len : {0, 1, 5, 63, 64, 65, 130, 200}) {
      TritVector head = random_trits(offset);
      const TritVector tail = random_trits(len);
      const TritVector want = per_trit(tail, 0, len, head);
      head.append(tail);
      ASSERT_EQ(head, want) << "append at offset " << offset << " len " << len;

      const TritVector source = random_trits(offset + len + rng.below(70));
      ASSERT_EQ(source.slice(offset, len), per_trit(source, offset, len, TritVector{}))
          << "slice at offset " << offset << " len " << len;
    }
    TritVector self = random_trits(offset + 17);
    const TritVector want = per_trit(self, 0, self.size(), self);
    self.append(self);
    ASSERT_EQ(self, want) << "self-append at offset " << offset;
  }
}

// ---------------------------------------------------------------- wordops

// SWAR bit reversal against the per-bit reference it replaced.
TEST(WordOpsTest, ReverseBits64MatchesPerBitReference) {
  const auto naive = [](std::uint64_t v) {
    std::uint64_t r = 0;
    for (unsigned i = 0; i < 64; ++i) {
      r = (r << 1) | ((v >> i) & 1u);
    }
    return r;
  };
  EXPECT_EQ(reverse_bits64(0), 0u);
  EXPECT_EQ(reverse_bits64(~0ULL), ~0ULL);
  EXPECT_EQ(reverse_bits64(1), 1ULL << 63);
  Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.next_u64();
    ASSERT_EQ(reverse_bits64(v), naive(v)) << "v=" << v;
  }
}

TEST(WordOpsTest, ReverseLowBitsMatchesPerBitReference) {
  const auto naive = [](std::uint64_t v, unsigned len) {
    std::uint64_t r = 0;
    for (unsigned i = 0; i < len; ++i) {
      r = (r << 1) | ((v >> i) & 1u);
    }
    return r;
  };
  Rng rng(78);
  for (unsigned len = 1; len <= 64; ++len) {
    for (int i = 0; i < 200; ++i) {
      // Garbage above the field must not leak into the result.
      const std::uint64_t raw = rng.next_u64();
      ASSERT_EQ(reverse_low_bits(raw, len), naive(raw & low_mask(len), len))
          << "len=" << len;
    }
  }
}

// The lane-zero test behind the dictionary's slab match kernel, against a
// per-lane reference. Lanes 0x0000 next to 0x0001 / 0x8000 / 0xffff are the
// cases a borrow-prone zero test gets wrong.
TEST(WordOpsTest, ZeroLanes16MatchesPerLaneReference) {
  const auto reference = [](std::uint64_t x) {
    std::uint64_t out = 0;
    for (unsigned k = 0; k < 4; ++k) {
      if (((x >> (16 * k)) & 0xffff) == 0) out |= 0x8000ULL << (16 * k);
    }
    return out;
  };
  static_assert(zero_lanes16(0) == 0x8000800080008000ULL);
  static_assert(zero_lanes16(0x0001000000010000ULL) == 0x0000800000008000ULL);
  constexpr std::uint16_t kEdges[] = {0x0000, 0x0001, 0x7fff, 0x8000, 0x8001, 0xffff};
  for (const std::uint16_t a : kEdges) {
    for (const std::uint16_t b : kEdges) {
      for (const std::uint16_t c : kEdges) {
        for (const std::uint16_t d : kEdges) {
          const std::uint64_t x = std::uint64_t{a} | std::uint64_t{b} << 16 |
                                  std::uint64_t{c} << 32 | std::uint64_t{d} << 48;
          ASSERT_EQ(zero_lanes16(x), reference(x)) << std::hex << x;
        }
      }
    }
  }
  Rng rng(1616);
  for (int i = 0; i < 20000; ++i) {
    // Sparse lanes so zero lanes are common.
    std::uint64_t x = rng.next_u64() & rng.next_u64() & rng.next_u64();
    if (rng.chance(0.5)) x &= 0xffff0000ffff0000ULL >> (16 * rng.below(2));
    ASSERT_EQ(zero_lanes16(x), reference(x)) << std::hex << x;
  }
}

TEST(WordOpsTest, LowMaskEdges) {
  EXPECT_EQ(low_mask(0), 0u);
  EXPECT_EQ(low_mask(1), 1u);
  EXPECT_EQ(low_mask(63), ~0ULL >> 1);
  EXPECT_EQ(low_mask(64), ~0ULL);
}

TEST(WordOpsTest, Byteswap64) {
  EXPECT_EQ(byteswap64(0x0102030405060708ULL), 0x0807060504030201ULL);
  EXPECT_EQ(byteswap64(byteswap64(0xDEADBEEFCAFEF00DULL)),
            0xDEADBEEFCAFEF00DULL);
}

// ---------------------------------------------------------- batched writer

// Property: the word-staging BitWriter is bit-identical to a bit-serial
// reference under random width sequences — including bytes() flushes
// interleaved mid-stream, which force the ragged (non-64-aligned) spill
// paths the steady state never hits.
TEST(BitstreamTest, PropertyBatchedWriterMatchesBitSerialReference) {
  Rng rng(501);
  for (int round = 0; round < 50; ++round) {
    BitWriter batched;
    BitWriter reference;
    std::vector<std::pair<std::uint64_t, unsigned>> writes;
    for (int w = 0; w < 200; ++w) {
      const unsigned width = 1 + static_cast<unsigned>(rng.below(64));
      const std::uint64_t value = rng.next_u64() & low_mask(width);
      batched.write(value, width);
      for (unsigned b = width; b-- > 0;) {
        reference.write_bit(((value >> b) & 1u) != 0);
      }
      if (rng.chance(0.1)) {
        // Mid-stream observation drains the staging word at a position that
        // is rarely byte- (let alone word-) aligned.
        ASSERT_EQ(batched.bytes(), reference.bytes()) << "round " << round;
      }
    }
    ASSERT_EQ(batched.bit_count(), reference.bit_count());
    ASSERT_EQ(batched.bytes(), reference.bytes()) << "round " << round;
    for (std::size_t i = 0; i < batched.bit_count(); i += 17) {
      ASSERT_EQ(batched.bit_at(i), reference.bit_at(i));
    }
  }
}

// Property: chunked BitReader::read equals a read_bit-composed reference.
TEST(BitstreamTest, PropertyChunkedReadMatchesBitSerialReference) {
  Rng rng(502);
  BitWriter w;
  for (int i = 0; i < 500; ++i) w.write_bit(rng.bit());
  for (int round = 0; round < 200; ++round) {
    BitReader chunked(w);
    BitReader serial(w);
    while (chunked.remaining() > 0) {
      const unsigned width = std::min<unsigned>(
          1 + static_cast<unsigned>(rng.below(64)),
          static_cast<unsigned>(chunked.remaining()));
      std::uint64_t expect = 0;
      for (unsigned b = 0; b < width; ++b) {
        expect = (expect << 1) | (serial.read_bit() ? 1u : 0u);
      }
      ASSERT_EQ(chunked.read(width), expect);
      ASSERT_EQ(chunked.position(), serial.position());
    }
  }
}

// Property: the windowed read (one 64-bit load while eight bytes remain)
// equals a per-bit reference at every buffer length 0-17 bytes, every
// start offset and every width 1-64, so the window, the byte-loop tail and
// the switch between them all agree; a read past bit_count raises
// CodeStreamTruncated at the start offset and consumes nothing.
TEST(BitstreamTest, PropertyWindowedReadMatchesPerBitReference) {
  Rng rng(503);
  for (std::size_t len = 0; len <= 17; ++len) {
    std::vector<std::uint8_t> bytes(len);  // exact size: no slack to read
    for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
    for (const std::size_t bit_count : {8 * len, 8 * len - std::min<std::size_t>(len, 5)}) {
      for (std::size_t start = 0; start <= bit_count; ++start) {
        for (unsigned width = 1; width <= 64; ++width) {
          BitReader r(bytes, bit_count);
          for (std::size_t i = 0; i < start; ++i) r.read_bit();
          if (start + width <= bit_count) {
            std::uint64_t expect = 0;
            for (std::size_t i = start; i < start + width; ++i) {
              expect = (expect << 1) | ((bytes[i / 8] >> (7 - i % 8)) & 1u);
            }
            ASSERT_EQ(r.read(width), expect)
                << "len " << len << " bits " << bit_count << " start " << start
                << " width " << width;
            ASSERT_EQ(r.position(), start + width);
          } else {
            try {
              r.read(width);
              FAIL() << "read past bit_count did not raise: len " << len << " start "
                     << start << " width " << width;
            } catch (const TdcErrorBase& e) {
              ASSERT_EQ(e.error().kind, ErrorKind::CodeStreamTruncated);
              ASSERT_EQ(e.error().bit_offset, static_cast<std::int64_t>(start));
            }
            ASSERT_EQ(r.position(), start);
          }
        }
      }
    }
  }
}

// ------------------------------------------------------------ SIMD kernels

// Property: whatever active_kernel() dispatched to (avx2 on capable hosts,
// scalar otherwise) is bit-identical to the always-compiled scalar
// reference, on lengths that cover every remainder of the 4-word vector
// stride, with adversarial all-X / all-care planes mixed in.
TEST(SimdKernelsTest, PropertyDispatchedMatchesScalarReference) {
  Rng rng(701);
  SCOPED_TRACE(std::string("active kernel: ") + simd::active_kernel());
  for (const std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 15u, 33u}) {
    for (int round = 0; round < 50; ++round) {
      std::vector<std::uint64_t> ca(n), va(n), cb(n), vb(n);
      for (std::size_t i = 0; i < n; ++i) {
        switch (rng.below(4)) {
          case 0: ca[i] = 0; break;            // all-X word
          case 1: ca[i] = ~0ULL; break;        // fully specified word
          default: ca[i] = rng.next_u64(); break;
        }
        cb[i] = rng.chance(0.25) ? ca[i] : rng.next_u64();
        va[i] = rng.next_u64() & ca[i];
        vb[i] = rng.chance(0.25) ? va[i] & cb[i] : rng.next_u64() & cb[i];
      }
      ASSERT_EQ(simd::popcount_words(ca.data(), n),
                simd::detail::popcount_words_scalar(ca.data(), n));
      ASSERT_EQ(simd::planes_conflict(ca.data(), va.data(), cb.data(),
                                      vb.data(), n),
                simd::detail::planes_conflict_scalar(ca.data(), va.data(),
                                                     cb.data(), vb.data(), n));
      ASSERT_EQ(simd::planes_uncovered(ca.data(), va.data(), cb.data(),
                                       vb.data(), n),
                simd::detail::planes_uncovered_scalar(
                    ca.data(), va.data(), cb.data(), vb.data(), n));
      std::vector<std::uint64_t> ca2 = ca, va2 = va;
      simd::planes_merge(ca.data(), va.data(), cb.data(), vb.data(), n);
      simd::detail::planes_merge_scalar(ca2.data(), va2.data(), cb.data(),
                                        vb.data(), n);
      ASSERT_EQ(ca, ca2);
      ASSERT_EQ(va, va2);
    }
  }

  // Text kernels: dispatched, scalar and the per-character reference on
  // every tail length, in exact-size heap buffers so a sanitizer build
  // reports any access one byte past either end.
  for (const std::size_t n : text_lengths()) {
    const std::string text = random_trit_text(rng, n);
    const std::unique_ptr<char[]> in(new char[n]);
    std::copy(text.begin(), text.end(), in.get());
    std::vector<std::uint64_t> care_ref;
    std::vector<std::uint64_t> value_ref;
    ASSERT_EQ(parse_reference(in.get(), n, care_ref, value_ref), n);
    // Poisoned planes: the kernels must overwrite every word, zeroing the
    // bits past n.
    std::vector<std::uint64_t> care(words_for(n), ~0ULL);
    std::vector<std::uint64_t> value(words_for(n), ~0ULL);
    ASSERT_EQ(simd::parse_trit_chars(in.get(), n, care.data(), value.data()), n);
    ASSERT_EQ(care, care_ref) << "n=" << n;
    ASSERT_EQ(value, value_ref) << "n=" << n;
    care.assign(words_for(n), ~0ULL);
    value.assign(words_for(n), ~0ULL);
    ASSERT_EQ(simd::detail::parse_trit_chars_scalar(in.get(), n, care.data(), value.data()),
              n);
    ASSERT_EQ(care, care_ref) << "n=" << n;
    ASSERT_EQ(value, value_ref) << "n=" << n;

    std::string want(n, 'X');
    for (std::size_t i = 0; i < n; ++i) want[i] = to_char(trit_from_char(text[i]));
    const std::unique_ptr<char[]> out(new char[n]);
    simd::format_trit_chars(care_ref.data(), value_ref.data(), n, out.get());
    ASSERT_EQ(std::string(out.get(), n), want) << "n=" << n;
    simd::detail::format_trit_chars_scalar(care_ref.data(), value_ref.data(), n, out.get());
    ASSERT_EQ(std::string(out.get(), n), want) << "n=" << n;
  }
}

// The CharCursor property test above compares against word()/care_word(),
// which now share the SWAR extract path — this one pins both against an
// independent per-trit get() reference so a common-mode bug cannot hide.
TEST(CharCursorTest, PropertyMatchesPerTritReference) {
  Rng rng(602);
  for (const std::size_t n : {1u, 64u, 65u, 127u, 128u, 129u, 1000u}) {
    for (const std::uint32_t cc : {1u, 3u, 7u, 8u, 16u, 33u, 64u}) {
      TritVector v(n);
      for (std::size_t i = 0; i < n; ++i) {
        v.set(i, static_cast<Trit>(rng.below(3)));
      }
      CharCursor cur(v, cc);
      for (std::uint64_t k = 0; !cur.done(); ++k) {
        std::uint64_t want_value = 0;
        std::uint64_t want_care = 0;
        for (std::uint32_t b = 0; b < cc; ++b) {
          const std::size_t pos = static_cast<std::size_t>(k) * cc + b;
          const Trit t = pos < n ? v.get(pos) : Trit::X;
          want_value = (want_value << 1) | (t == Trit::One ? 1u : 0u);
          want_care = (want_care << 1) | (is_care(t) ? 1u : 0u);
        }
        const auto c = cur.next();
        ASSERT_EQ(c.value, want_value) << "n=" << n << " cc=" << cc << " k=" << k;
        ASSERT_EQ(c.care, want_care) << "n=" << n << " cc=" << cc << " k=" << k;
      }
    }
  }
}

}  // namespace
}  // namespace tdc::bits
