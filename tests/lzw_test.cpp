#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "bits/rng.h"
#include "bits/tritvector.h"
#include "lzw/config.h"
#include "lzw/decoder.h"
#include "lzw/dictionary.h"
#include "lzw/encoder.h"
#include "lzw/verify.h"
#include "reference_encoders.h"

namespace tdc::lzw {
namespace {

using bits::Rng;
using bits::Trit;
using bits::TritVector;

/// Random ternary vector with the given X density.
TritVector random_cube(std::size_t n, double x_density, std::uint64_t seed) {
  Rng rng(seed);
  TritVector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!rng.chance(x_density)) v.set(i, rng.bit() ? Trit::One : Trit::Zero);
  }
  return v;
}

// ---------------------------------------------------------------- LzwConfig

TEST(LzwConfigTest, DerivedQuantities) {
  LzwConfig c{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};
  EXPECT_EQ(c.code_bits(), 10u);
  EXPECT_EQ(c.literal_count(), 128u);
  EXPECT_EQ(c.first_code(), 128u);
  EXPECT_EQ(c.max_entry_chars(), 9u);
  EXPECT_FALSE(c.degenerate());
}

TEST(LzwConfigTest, NonPowerOfTwoDictSize) {
  LzwConfig c{.dict_size = 1000, .char_bits = 7, .entry_bits = 63};
  EXPECT_EQ(c.code_bits(), 10u);  // still needs 10 bits for code 999
}

TEST(LzwConfigTest, DegenerateWhenLiteralsFillDictionary) {
  // Paper Table 4: at C_C = 10 with N = 1024 "there are no more compress
  // codes available" — every code is a literal.
  LzwConfig c{.dict_size = 1024, .char_bits = 10, .entry_bits = 63};
  EXPECT_TRUE(c.degenerate());
  EXPECT_NO_THROW(c.validate());
}

TEST(LzwConfigTest, ValidationRejectsBadShapes) {
  EXPECT_THROW((LzwConfig{.dict_size = 64, .char_bits = 7, .entry_bits = 63}.validate()),
               std::invalid_argument);  // dict smaller than literal set
  EXPECT_THROW((LzwConfig{.dict_size = 1024, .char_bits = 0, .entry_bits = 63}.validate()),
               std::invalid_argument);
  EXPECT_THROW((LzwConfig{.dict_size = 1024, .char_bits = 7, .entry_bits = 3}.validate()),
               std::invalid_argument);  // entry narrower than one char
}

// ---------------------------------------------------------------- Dictionary

LzwConfig tiny_config() {
  // 1-bit characters as in the paper's Fig. 3/4 walkthrough.
  return LzwConfig{.dict_size = 8, .char_bits = 1, .entry_bits = 8};
}

TEST(DictionaryTest, LiteralsPredefined) {
  Dictionary d(tiny_config());
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.next_code(), 2u);
  EXPECT_TRUE(d.defined(0));
  EXPECT_TRUE(d.defined(1));
  EXPECT_FALSE(d.defined(2));
  EXPECT_EQ(d.length(0), 1u);
  EXPECT_EQ(d.expand(1), (std::vector<std::uint32_t>{1}));
}

TEST(DictionaryTest, AddAndExpandChain) {
  Dictionary d(tiny_config());
  const auto c2 = d.add(1, 0);  // "10"
  const auto c3 = d.add(c2, 1);  // "101"
  EXPECT_EQ(c2, 2u);
  EXPECT_EQ(c3, 3u);
  EXPECT_EQ(d.expand(c3), (std::vector<std::uint32_t>{1, 0, 1}));
  EXPECT_EQ(d.first_char(c3), 1u);
  EXPECT_EQ(d.last_char(c3), 1u);
  EXPECT_EQ(d.parent(c3), c2);
  EXPECT_EQ(d.length(c3), 3u);
  EXPECT_EQ(d.length_bits(c3), 3u);
}

TEST(DictionaryTest, ChildLookup) {
  Dictionary d(tiny_config());
  const auto c2 = d.add(0, 0);
  EXPECT_EQ(d.child(0, 0), c2);
  EXPECT_EQ(d.child(0, 1), kNoCode);
  EXPECT_EQ(d.children(0).size(), 1u);
}

// Property: the exact lookup behind child() (the slab match kernel with a
// full care mask) agrees with a scan of the insertion-ordered child lists
// for every (code, character) pair, on a random trie of N = 2048 whose
// slabs move many times.
TEST(DictionaryTest, ExactLookupAgreesWithChildLists) {
  const LzwConfig c{.dict_size = 2048, .char_bits = 7, .entry_bits = 1 << 16};
  Dictionary d(c);
  bits::Rng rng(4242);
  while (!d.full()) {
    const auto parent = rng.below(d.size());
    const auto ch = rng.below(c.literal_count());
    bool exists = false;
    for (const auto& [cc, cd] : d.children(parent)) exists |= cc == ch;
    if (exists || !d.extendable(parent)) continue;
    ASSERT_NE(d.add(parent, ch), kNoCode);
  }
  for (std::uint32_t code = 0; code < d.size(); ++code) {
    for (const auto& [ch, child] : d.children(code)) {
      ASSERT_EQ(d.child(code, ch), child);
    }
    // A character no child list contains must miss in the lookup too.
    for (int probe = 0; probe < 8; ++probe) {
      const auto ch = rng.below(c.literal_count());
      std::uint32_t expect = kNoCode;
      for (const auto& [cc, cd] : d.children(code)) {
        if (cc == ch) expect = cd;
      }
      ASSERT_EQ(d.child(code, ch), expect);
    }
  }
}

// Reference compatibility scan: one test per child, insertion order.
std::vector<std::uint32_t> compatible_reference(const Dictionary& d, std::uint32_t code,
                                                std::uint64_t value, std::uint64_t care) {
  std::vector<std::uint32_t> hits;
  for (const auto& [ch, child] : d.children(code)) {
    if (((ch ^ value) & care) == 0) hits.push_back(child);
  }
  return hits;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> listed_children(const Dictionary& d,
                                                                     std::uint32_t code) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  for (const auto& pair : d.children(code)) out.push_back(pair);
  return out;
}

// Characters 0 .. n-1 in a seeded random order (Fisher-Yates).
std::vector<std::uint32_t> shuffled_chars(std::uint32_t n, Rng& rng) {
  std::vector<std::uint32_t> chars(n);
  for (std::uint32_t ch = 0; ch < n; ++ch) chars[ch] = ch;
  for (std::size_t i = n; i > 1; --i) std::swap(chars[i - 1], chars[rng.below(i)]);
  return chars;
}

// Checks every match scan of `code` against the reference for one ternary
// character: for_each_match visits exactly the compatible children in
// insertion order, each with its own character, and first_match /
// last_match are the ends of that list.
void expect_scans_match(const Dictionary& d, std::uint32_t code, std::uint64_t value,
                        std::uint64_t care) {
  const std::vector<std::uint32_t> want = compatible_reference(d, code, value, care);
  std::vector<std::uint32_t> got;
  d.for_each_match(code, value, care, [&](std::uint32_t child, std::uint32_t ch) {
    EXPECT_EQ(ch, d.last_char(child));
    got.push_back(child);
    return true;
  });
  ASSERT_EQ(got, want) << "code " << code << " value " << value << " care " << care;
  ASSERT_EQ(d.first_match(code, value, care), want.empty() ? kNoCode : want.front());
  ASSERT_EQ(d.last_match(code, value, care), want.empty() ? kNoCode : want.back());
}

// One C_C = 7 parent gains all 128 children in a shuffled order: the slab
// moves at counts 4, 8, ..., 64 and the order must survive every move.
// child() finds each child and misses every other character after every
// add.
TEST(DictionaryTest, SlabGrowthKeepsInsertionOrderAtCc7) {
  const LzwConfig c{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};
  Dictionary d(c);
  Rng rng(77);
  const std::vector<std::uint32_t> chars = shuffled_chars(128, rng);
  const std::uint32_t parent = 5;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> added;
  for (const std::uint32_t ch : chars) {
    // Interleave children of another parent so slabs do not sit alone at
    // the arena's end.
    ASSERT_NE(d.add(parent, ch), kNoCode);
    added.emplace_back(ch, d.size() - 1);
    if (added.size() % 3 == 0) d.add(static_cast<std::uint32_t>(d.size() - 1), 0);
    ASSERT_EQ(d.child_count(parent), added.size());
    ASSERT_EQ(listed_children(d, parent), added);
    std::vector<std::uint32_t> want(128, kNoCode);
    for (const auto& [ach, acode] : added) want[ach] = acode;
    for (std::uint32_t probe = 0; probe < 128; ++probe) {
      ASSERT_EQ(d.child(parent, probe), want[probe]);
    }
  }
}

// One C_C = 16 parent gains 300 children spread over the whole 16-bit range,
// including 0x0000 and 0x8000 (a top-bit-only difference).
TEST(DictionaryTest, SlabGrowthKeepsInsertionOrderAtCc16) {
  const LzwConfig c{.dict_size = 65536 + 512, .char_bits = 16, .entry_bits = 64};
  Dictionary d(c);
  Rng rng(1616);
  std::vector<std::uint32_t> chars{0x0000, 0x8000, 0xffff, 0x0001, 0x7fff};
  std::vector<bool> used(65536, false);
  for (const std::uint32_t ch : chars) used[ch] = true;
  while (chars.size() < 300) {
    const auto ch = static_cast<std::uint32_t>(rng.below(65536));
    if (!used[ch]) {
      used[ch] = true;
      chars.push_back(ch);
    }
  }
  const std::uint32_t parent = 0x8000;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> added;
  for (const std::uint32_t ch : chars) {
    ASSERT_NE(d.add(parent, ch), kNoCode);
    added.emplace_back(ch, d.size() - 1);
    ASSERT_EQ(listed_children(d, parent), added);
    for (const auto& [ach, acode] : added) ASSERT_EQ(d.child(parent, ach), acode);
  }
  std::vector<std::uint32_t> want(65536, kNoCode);
  for (const auto& [ach, acode] : added) want[ach] = acode;
  for (std::uint32_t ch = 0; ch < 65536; ++ch) ASSERT_EQ(d.child(parent, ch), want[ch]);
}

// Edge cases of the match kernel: slab counts 1-9, 63-65 and 127-129 (the
// masked tail lane of every word phase, word and slab-move boundaries),
// an all-X character (every child compatible), a full care mask (exact
// match), and random partial masks.
TEST(DictionaryTest, MatchKernelEdgeCases) {
  const LzwConfig c{.dict_size = 4096, .char_bits = 7, .entry_bits = 63};
  Rng rng(3131);
  for (const std::uint32_t count :
       {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 63u, 64u, 65u, 127u, 128u}) {
    Dictionary d(c);
    const std::vector<std::uint32_t> chars = shuffled_chars(128, rng);
    for (std::uint32_t k = 0; k < count; ++k) ASSERT_NE(d.add(3, chars[k]), kNoCode);
    ASSERT_EQ(d.child_count(3), count);
    expect_scans_match(d, 3, 0, 0);  // all X: every child
    for (std::uint32_t ch = 0; ch < 128; ++ch) {
      expect_scans_match(d, 3, ch, 0x7f);  // full care
      expect_scans_match(d, 3, ch & 0x55, 0x55);
      const auto care = static_cast<std::uint32_t>(rng.below(128));
      expect_scans_match(d, 3, ch & care, care);
    }
    expect_scans_match(d, 4, 0, 0);  // no children
  }
  // 129 children need C_C >= 8: a C_C = 8 parent with 127-129 children.
  const LzwConfig c8{.dict_size = 4096, .char_bits = 8, .entry_bits = 64};
  for (const std::uint32_t count : {127u, 128u, 129u}) {
    Dictionary d(c8);
    for (std::uint32_t k = 0; k < count; ++k) ASSERT_NE(d.add(9, (k * 37) & 0xff), kNoCode);
    expect_scans_match(d, 9, 0, 0);
    for (std::uint32_t ch = 0; ch < 256; ++ch) {
      expect_scans_match(d, 9, ch, 0xff);
      expect_scans_match(d, 9, ch & 0xf0, 0xf0);
    }
  }
  // C_C = 16: 0x0000 and 0x8000 differ only in the top bit. With care on
  // the top bit alone each matches only its own half; a borrow-prone zero
  // test would report the lane above a zero lane as a false hit.
  const LzwConfig c16{.dict_size = 65536 + 64, .char_bits = 16, .entry_bits = 64};
  Dictionary d(c16);
  for (const std::uint32_t ch : {0x0000u, 0x8000u, 0x0001u, 0x8001u, 0xffffu, 0x7fffu}) {
    ASSERT_NE(d.add(1, ch), kNoCode);
  }
  for (const std::uint64_t care : {0x8000ull, 0xffffull, 0x0001ull, 0x7fffull, 0ull}) {
    for (const std::uint64_t value : {0x0000ull, 0x8000ull, 0x0001ull, 0xffffull}) {
      expect_scans_match(d, 1, value & care, care);
    }
  }
  EXPECT_EQ(d.child(1, 0x8000), 65537u);
  EXPECT_EQ(d.child(1, 0x0000), 65536u);
  EXPECT_EQ(d.child(1, 0x4000), kNoCode);
}

// (character, child) pairs of every code, each list sorted: the
// (parent, char) -> code map with the slab order taken out.
using ChildPairs = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

std::vector<ChildPairs> child_map(const Dictionary& d) {
  std::vector<ChildPairs> map(d.size());
  for (std::uint32_t code = 0; code < d.size(); ++code) {
    map[code] = listed_children(d, code);
    std::sort(map[code].begin(), map[code].end());
  }
  return map;
}

// True when every slab of `d` is in `order`: ascending character (Char), or
// more children first, then lower code (ChildCount).
bool slabs_in_order(const Dictionary& d, SlabOrder order) {
  for (std::uint32_t code = 0; code < d.size(); ++code) {
    const auto kids = listed_children(d, code);
    for (std::size_t k = 1; k < kids.size(); ++k) {
      const auto [ach, a] = kids[k - 1];
      const auto [bch, b] = kids[k];
      const bool ordered =
          order == SlabOrder::Char
              ? ach < bch
              : d.child_count(a) > d.child_count(b) ||
                    (d.child_count(a) == d.child_count(b) && a < b);
      if (!ordered) return false;
    }
  }
  return true;
}

// Random tries fed to an insertion-ordered dictionary and to a Char- and a
// ChildCount-ordered one: after every add the ordered slabs keep their
// order, and all three hold the same (parent, char) -> code map, so child()
// and every match scan's hit set agree whatever the order.
TEST(DictionaryTest, OrderedSlabsKeepOrderAndTheInsertionMap) {
  for (const std::uint32_t cc : {2u, 7u}) {
    const LzwConfig c{
        .dict_size = cc == 2 ? 96u : 512u, .char_bits = cc, .entry_bits = 32 * cc};
    Dictionary plain(c);
    Dictionary by_char(c);
    Dictionary by_count(c);
    Rng rng(500 + cc);
    while (!plain.full()) {
      // Bias parents toward recent codes so deep chains and wide slabs form.
      const std::uint32_t recent = std::min(plain.size(), 8u);
      const auto parent = static_cast<std::uint32_t>(
          rng.chance(0.5) ? rng.below(plain.size()) : plain.size() - 1 - rng.below(recent));
      const auto ch = static_cast<std::uint32_t>(rng.below(c.literal_count()));
      if (plain.child(parent, ch) != kNoCode || !plain.extendable(parent)) continue;
      const std::uint32_t code = plain.add(parent, ch);
      ASSERT_EQ(by_char.add<SlabOrder::Char>(parent, ch), code);
      ASSERT_EQ(by_count.add<SlabOrder::ChildCount>(parent, ch), code);
      ASSERT_TRUE(slabs_in_order(by_char, SlabOrder::Char)) << "after code " << code;
      ASSERT_TRUE(slabs_in_order(by_count, SlabOrder::ChildCount)) << "after code " << code;
    }
    const auto want = child_map(plain);
    EXPECT_EQ(child_map(by_char), want);
    EXPECT_EQ(child_map(by_count), want);
    for (std::uint32_t code = 0; code < plain.size(); ++code) {
      for (std::uint32_t ch = 0; ch < c.literal_count(); ++ch) {
        ASSERT_EQ(by_char.child(code, ch), plain.child(code, ch));
        ASSERT_EQ(by_count.child(code, ch), plain.child(code, ch));
      }
    }
  }
}

// ChildCount order by hand: children 4, 5, 6 of literal 0 start in code
// order (no children each); a grandchild lifts its parent left past every
// sibling with fewer children and past equal-count siblings with a higher
// code, but not past an equal-count sibling with a lower code.
TEST(DictionaryTest, ChildCountOrderLiftsPastEqualCounts) {
  const LzwConfig c{.dict_size = 64, .char_bits = 2, .entry_bits = 16};
  Dictionary d(c);
  for (const std::uint32_t ch : {0u, 1u, 2u}) d.add<SlabOrder::ChildCount>(0, ch);
  const auto order = [&] {
    std::vector<std::uint32_t> codes;
    for (const auto& [ch, code] : d.children(0)) codes.push_back(code);
    return codes;
  };
  EXPECT_EQ(order(), (std::vector<std::uint32_t>{4, 5, 6}));
  d.add<SlabOrder::ChildCount>(6, 0);  // 6: one child, past 4 and 5
  EXPECT_EQ(order(), (std::vector<std::uint32_t>{6, 4, 5}));
  d.add<SlabOrder::ChildCount>(5, 0);  // 5: one child, past 4 and the equal 6
  EXPECT_EQ(order(), (std::vector<std::uint32_t>{5, 6, 4}));
  d.add<SlabOrder::ChildCount>(4, 3);  // 4: one child, past the equal 5 and 6
  EXPECT_EQ(order(), (std::vector<std::uint32_t>{4, 5, 6}));
  d.add<SlabOrder::ChildCount>(6, 1);  // 6: two children, first
  EXPECT_EQ(order(), (std::vector<std::uint32_t>{6, 4, 5}));
  d.add<SlabOrder::ChildCount>(5, 2);  // 5: two children, equal to 6 but lower
  EXPECT_EQ(order(), (std::vector<std::uint32_t>{5, 6, 4}));
  EXPECT_EQ(d.first_match(0, 0, 0), 5u);  // MostChildren's all-X pick
  // Char order by hand: each child lands at its sorted lane.
  Dictionary e(c);
  for (const std::uint32_t ch : {2u, 0u, 3u, 1u}) e.add<SlabOrder::Char>(1, ch);
  const ChildPairs want{{0, 5}, {1, 7}, {2, 4}, {3, 6}};
  EXPECT_EQ(listed_children(e, 1), want);
  EXPECT_EQ(e.first_match(1, 1, 1), 7u);  // LowestChar's pick for 'X1'
}

TEST(DictionaryTest, FreezesAtCapacity) {
  Dictionary d(tiny_config());  // N=8, 2 literals -> 6 entries available
  std::uint32_t parent = 0;
  for (int i = 0; i < 6; ++i) {
    const auto c = d.add(parent, 1);
    ASSERT_NE(c, kNoCode);
    parent = c;
  }
  EXPECT_TRUE(d.full());
  EXPECT_EQ(d.next_code(), kNoCode);
  EXPECT_EQ(d.add(0, 0), kNoCode);  // frozen
  EXPECT_EQ(d.size(), 8u);
}

TEST(DictionaryTest, EntryWidthCapEnforced) {
  // entry_bits=3, char_bits=1 -> max 3 characters per entry.
  LzwConfig c{.dict_size = 64, .char_bits = 1, .entry_bits = 3};
  Dictionary d(c);
  const auto c2 = d.add(1, 1);            // len 2
  const auto c3 = d.add(c2, 1);           // len 3 == cap
  ASSERT_NE(c3, kNoCode);
  EXPECT_FALSE(d.extendable(c3));
  EXPECT_EQ(d.add(c3, 1), kNoCode);       // would exceed C_MDATA
  EXPECT_EQ(d.longest_entry_bits(), 3u);
}

// ---------------------------------------------------------------- Encoder worked examples

TEST(EncoderTest, HandComputedExample) {
  // Input 101010 with 1-bit characters:
  //   emit 1 (add 2="10"), emit 0 (add 3="01"), match "10" -> emit 2
  //   (add 4="101"), match "10" -> flush emit 2.
  const Encoder enc(tiny_config());
  const auto r = enc.encode(TritVector::from_string("101010"));
  EXPECT_EQ(r.codes, (std::vector<std::uint32_t>{1, 0, 2, 2}));
  EXPECT_EQ(r.code_lengths, (std::vector<std::uint32_t>{1, 1, 2, 2}));
  EXPECT_EQ(r.original_bits, 6u);
  EXPECT_EQ(r.input_chars, 6u);
  EXPECT_EQ(r.compressed_bits(), 4u * 3u);  // C_E = 3
}

TEST(EncoderTest, KwKwKPattern) {
  // 11111 -> codes 1, 2, 2 where the first "2" is emitted before the decoder
  // has seen entry 2 defined (paper Fig. 4f special case).
  const Encoder enc(tiny_config());
  const auto r = enc.encode(TritVector::from_string("11111"));
  EXPECT_EQ(r.codes, (std::vector<std::uint32_t>{1, 2, 2}));
  const Decoder dec(tiny_config());
  const auto d = dec.decode(r.codes, 5);
  EXPECT_EQ(d.bits.to_string(), "11111");
}

TEST(EncoderTest, DynamicXBindingFollowsDictionary) {
  // 1X1X1X: the X bits must be bound so the stream matches dictionary
  // entries; the result equals the fully-specified 101010 run above.
  const Encoder enc(tiny_config());
  const auto r = enc.encode(TritVector::from_string("1X1X1X"));
  EXPECT_EQ(r.codes, (std::vector<std::uint32_t>{1, 0, 2, 2}));
  const auto rep = verify_roundtrip(TritVector::from_string("1X1X1X"), r);
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST(EncoderTest, AllXCompressesHard) {
  const Encoder enc(LzwConfig{.dict_size = 1024, .char_bits = 7, .entry_bits = 63});
  TritVector v(7000);  // all X
  const auto r = enc.encode(v);
  EXPECT_GT(r.ratio_percent(), 80.0);
  EXPECT_TRUE(verify_roundtrip(v, r).ok);
}

TEST(EncoderTest, EmptyInput) {
  const Encoder enc(tiny_config());
  const auto r = enc.encode(TritVector{});
  EXPECT_TRUE(r.codes.empty());
  EXPECT_EQ(r.original_bits, 0u);
  const Decoder dec(tiny_config());
  EXPECT_EQ(dec.decode(r.codes, 0).bits.size(), 0u);
}

TEST(EncoderTest, SingleCharInput) {
  const Encoder enc(tiny_config());
  const auto r = enc.encode(TritVector::from_string("1"));
  EXPECT_EQ(r.codes, (std::vector<std::uint32_t>{1}));
  EXPECT_TRUE(verify_roundtrip(TritVector::from_string("1"), r).ok);
}

TEST(EncoderTest, PartialTailCharacterIsPadded) {
  const LzwConfig c{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};
  const Encoder enc(c);
  const auto input = random_cube(100, 0.5, 99);  // 100 % 7 != 0
  const auto r = enc.encode(input);
  EXPECT_EQ(r.input_chars, (100u + 6u) / 7u);
  EXPECT_EQ(r.original_bits, 100u);
  EXPECT_TRUE(verify_roundtrip(input, r).ok);
}

TEST(EncoderTest, StreamPackingMatchesCodeCount) {
  const LzwConfig c{.dict_size = 2048, .char_bits = 7, .entry_bits = 63};
  const Encoder enc(c);
  const auto r = enc.encode(random_cube(5000, 0.8, 5));
  EXPECT_EQ(r.stream.bit_count(), r.codes.size() * c.code_bits());
}

TEST(EncoderTest, DegenerateConfigEmitsLiteralsOnly) {
  // N == 2^C_C: every code is a literal, no compression possible.
  const LzwConfig c{.dict_size = 256, .char_bits = 8, .entry_bits = 64};
  const Encoder enc(c);
  const auto input = random_cube(1024, 0.0, 3);
  const auto r = enc.encode(input);
  EXPECT_EQ(r.codes.size(), 1024u / 8u);
  EXPECT_NEAR(r.ratio_percent(), 0.0, 1e-9);
  EXPECT_TRUE(verify_roundtrip(input, r).ok);
}

TEST(EncoderTest, LongestEntryRespectsWidthCap) {
  const LzwConfig c{.dict_size = 4096, .char_bits = 1, .entry_bits = 5};
  const Encoder enc(c);
  const auto r = enc.encode(TritVector(4000, Trit::Zero));
  EXPECT_LE(r.longest_entry_bits, 5u);
  EXPECT_LE(r.longest_match_bits, 5u);
  EXPECT_TRUE(verify_roundtrip(TritVector(4000, Trit::Zero), r).ok);
}

TEST(EncoderTest, DictionaryFreezeKeepsLockstep) {
  // Tiny dictionary fills instantly; encoder and decoder must stay in sync
  // long after the freeze.
  const LzwConfig c{.dict_size = 16, .char_bits = 2, .entry_bits = 8};
  const Encoder enc(c);
  const auto input = random_cube(4000, 0.3, 17);
  const auto r = enc.encode(input);
  EXPECT_TRUE(verify_roundtrip(input, r).ok);
  EXPECT_EQ(r.dict_codes_used, 16u);
}

// ---------------------------------------------------------------- Decoder errors

TEST(DecoderTest, RejectsUndefinedCode) {
  const Decoder dec(tiny_config());
  EXPECT_THROW(dec.decode({1, 5}, 4), std::invalid_argument);
}

TEST(DecoderTest, RejectsLeadingNonLiteral) {
  const Decoder dec(tiny_config());
  EXPECT_THROW(dec.decode({2}, 2), std::invalid_argument);
}

TEST(DecoderTest, RejectsTruncatedStream) {
  const Decoder dec(tiny_config());
  EXPECT_THROW(dec.decode({1}, 10), std::invalid_argument);
}

TEST(DecoderTest, DictGrowsInLockstepWithEncoder) {
  const LzwConfig c{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};
  const auto input = random_cube(3000, 0.7, 11);
  const auto r = Encoder(c).encode(input);
  const auto d = Decoder(c).decode(r.codes, r.original_bits);
  // Decoder may learn exactly one extra entry from the final code.
  EXPECT_GE(d.dict_codes_used + 0u, r.dict_codes_used - 1u);
  EXPECT_LE(d.dict_codes_used, r.dict_codes_used + 1u);
}

// ---------------------------------------------------------------- X-assignment modes

TEST(XAssignTest, PrefillModesProduceCompatibleStreams) {
  const LzwConfig c{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};
  const auto input = random_cube(4000, 0.85, 23);
  for (const auto mode : {XAssignMode::ZeroFill, XAssignMode::OneFill,
                          XAssignMode::RepeatFill, XAssignMode::RandomFill}) {
    const auto rep = encode_and_verify(c, input, mode);
    EXPECT_TRUE(rep.ok) << rep.error;
  }
}

TEST(XAssignTest, DynamicBeatsPrefillOnHighXInput) {
  // The paper's §5 observation: pre-processing the don't-cares yields only
  // 40–60 %, the dynamic sliding-window assignment is what reaches 70 %+.
  const LzwConfig c{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};
  const Encoder enc(c);
  const auto input = random_cube(30000, 0.9, 31);
  const double dynamic = enc.encode(input, XAssignMode::Dynamic).ratio_percent();
  const double zero = enc.encode(input, XAssignMode::ZeroFill).ratio_percent();
  const double random = enc.encode(input, XAssignMode::RandomFill).ratio_percent();
  EXPECT_GT(dynamic, zero);
  EXPECT_GT(dynamic, random);
}

TEST(XAssignTest, FullySpecifiedInputIdenticalAcrossModes) {
  const LzwConfig c{.dict_size = 512, .char_bits = 4, .entry_bits = 32};
  const auto input = random_cube(2000, 0.0, 41);
  const Encoder enc(c);
  const auto base = enc.encode(input, XAssignMode::Dynamic);
  for (const auto mode : {XAssignMode::ZeroFill, XAssignMode::OneFill,
                          XAssignMode::RepeatFill, XAssignMode::RandomFill}) {
    EXPECT_EQ(enc.encode(input, mode).codes, base.codes);
  }
}

// ---------------------------------------------------------------- Tie-break policies

TEST(TiebreakTest, AllPoliciesRoundTrip) {
  const LzwConfig c{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};
  const auto input = random_cube(8000, 0.8, 53);
  for (const auto tb : {Tiebreak::First, Tiebreak::LowestChar,
                        Tiebreak::MostRecent, Tiebreak::MostChildren}) {
    const auto rep = encode_and_verify(c, input, XAssignMode::Dynamic, tb);
    EXPECT_TRUE(rep.ok) << rep.error;
  }
}

// Regression: LowestChar must resolve a multi-way ambiguous match by the
// numerically smallest compatible *character*, tracked from the scanned
// child itself — not by insertion order or recency.
TEST(TiebreakTest, LowestCharPicksSmallestCompatibleCharacter) {
  // char_bits=2, N=8: literals 0..3, entries 4..7. The input
  //   00 10 00 01 00 XX
  // builds children of literal 0 in insertion order (2 -> code 4, 1 -> code
  // 6), then offers the fully ambiguous character XX. LowestChar must take
  // the ch=1 child (code 6) even though ch=2 was inserted first.
  const LzwConfig c{.dict_size = 8, .char_bits = 2, .entry_bits = 8};
  const auto input = TritVector::from_string("0010000100XX");

  const auto lowest = Encoder(c, Tiebreak::LowestChar).encode(input);
  EXPECT_EQ(lowest.codes, (std::vector<std::uint32_t>{0, 2, 0, 1, 6}));

  // Control: First keeps insertion order and lands on the ch=2 child.
  const auto first = Encoder(c, Tiebreak::First).encode(input);
  EXPECT_EQ(first.codes, (std::vector<std::uint32_t>{0, 2, 0, 1, 4}));

  // The reference walk agrees (the fix is independent of the slab order).
  const auto reference = reference::reference_lzw_encode(c, Tiebreak::LowestChar, input);
  EXPECT_EQ(reference.codes, lowest.codes);
}

// ---------------------------------------------------------------- Round-trip property sweep

struct RoundTripParam {
  std::uint32_t dict_size;
  std::uint32_t char_bits;
  std::uint32_t entry_bits;
  double x_density;
  std::size_t bits;
};

class RoundTripProperty : public ::testing::TestWithParam<RoundTripParam> {};

TEST_P(RoundTripProperty, DecodedStreamCoversInput) {
  const auto p = GetParam();
  const LzwConfig c{.dict_size = p.dict_size, .char_bits = p.char_bits,
                    .entry_bits = p.entry_bits};
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto input = random_cube(p.bits, p.x_density, seed * 7919);
    const auto rep = encode_and_verify(c, input);
    ASSERT_TRUE(rep.ok) << c.describe() << " density=" << p.x_density
                        << " seed=" << seed << ": " << rep.error;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSweep, RoundTripProperty,
    ::testing::Values(
        RoundTripParam{8, 1, 8, 0.0, 500},
        RoundTripParam{8, 1, 8, 0.9, 500},
        RoundTripParam{64, 2, 16, 0.5, 2000},
        RoundTripParam{256, 4, 32, 0.7, 3000},
        RoundTripParam{1024, 7, 63, 0.0, 4000},
        RoundTripParam{1024, 7, 63, 0.5, 4000},
        RoundTripParam{1024, 7, 63, 0.93, 4000},
        RoundTripParam{2048, 7, 63, 0.85, 8000},
        RoundTripParam{1024, 7, 127, 0.9, 4000},
        RoundTripParam{1024, 7, 511, 0.9, 4000},
        RoundTripParam{1024, 10, 63, 0.8, 4000},   // degenerate: no codes
        RoundTripParam{8192, 13, 127, 0.8, 8000},  // exactly degenerate
        RoundTripParam{16, 2, 8, 0.6, 3000},       // instant freeze
        RoundTripParam{65536, 8, 255, 0.75, 20000}));

// Ratio must always be consistent with the raw counts it is derived from.
TEST(StatsTest, RatioFormula) {
  const LzwConfig c{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};
  const auto input = random_cube(7000, 0.8, 61);
  const auto r = Encoder(c).encode(input);
  const double expect =
      (1.0 - static_cast<double>(r.codes.size() * 10) / 7000.0) * 100.0;
  EXPECT_DOUBLE_EQ(r.ratio_percent(), expect);
}

// ---------------------------------------------------------------- telemetry
//
// The always-on hot-path telemetry must agree exactly with the encode it
// describes — these invariants hold for any input, so they run on the same
// random cubes the round-trip property tests use.

TEST(TelemetryTest, EncoderAccountingIsExact) {
  const LzwConfig c{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};
  const auto input = random_cube(7000, 0.8, 17);
  const auto r = Encoder(c).encode(input);
  const EncoderTelemetry& tel = r.telemetry;

  // One histogram sample per emitted code; lengths partition the input.
  EXPECT_EQ(tel.match_chars.snapshot().count, r.codes.size());
  EXPECT_EQ(tel.code_width_bits.snapshot().count, r.codes.size());
  EXPECT_EQ(tel.match_chars.snapshot().sum, r.input_chars);
  EXPECT_EQ(tel.code_width_bits.snapshot().sum, r.compressed_bits());

  // Every character after the first probes the dictionary exactly once, and
  // a probe either extends the match or ends one (the final emit is outside
  // the loop, so emissions-during-loop = codes - 1).
  EXPECT_EQ(tel.probes_fast + tel.probes_scan, r.input_chars - 1);
  EXPECT_EQ(tel.match_extensions, r.input_chars - r.codes.size());

  // Dynamic mode: every X bit of the input is bound exactly once — by a
  // match or by zeroing — and none were pre-filled.
  EXPECT_EQ(tel.x_bits_input, input.x_count());
  EXPECT_EQ(tel.x_bits_matched + tel.x_bits_zeroed, tel.x_bits_input);
  EXPECT_EQ(tel.x_bits_prefilled, 0u);

  // Dictionary growth matches the result's own accounting.
  EXPECT_EQ(tel.entries_added, r.dict_codes_used - c.literal_count());
}

TEST(TelemetryTest, PrefillModesReportPrefilledBits) {
  const LzwConfig c{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};
  // 4200 bits = 600 whole 7-bit characters: no X-padded tail character, so
  // the loop-side X counters must land on exactly zero.
  const auto input = random_cube(4200, 0.9, 23);
  const auto r = Encoder(c).encode(input, XAssignMode::ZeroFill);
  // The pre-fill resolved every X before the loop: the loop saw none.
  EXPECT_EQ(r.telemetry.x_bits_prefilled, input.x_count());
  EXPECT_EQ(r.telemetry.x_bits_input, 0u);
  EXPECT_EQ(r.telemetry.x_bits_matched, 0u);
}

TEST(TelemetryTest, ProbeSplitFollowsStrategyAndCareBits) {
  const LzwConfig c{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};
  // Fully specified input: the encoder answers every probe through the
  // exact lookup, the reference walk never does.
  const auto dense = random_cube(7000, 0.0, 31);
  const auto indexed = Encoder(c, Tiebreak::First).encode(dense);
  EXPECT_GT(indexed.telemetry.probes_fast, 0u);
  EXPECT_EQ(indexed.telemetry.probes_scan, 0u);

  const auto legacy = reference::reference_lzw_encode(c, Tiebreak::First, dense);
  EXPECT_EQ(legacy.telemetry.probes_fast, 0u);
  EXPECT_EQ(legacy.telemetry.probes_scan, indexed.telemetry.probes_fast);

  // Identical output streams mean identical emission telemetry.
  EXPECT_EQ(legacy.telemetry.match_chars.snapshot().sum,
            indexed.telemetry.match_chars.snapshot().sum);

  // An X-bearing character must take the tiebreak-aware scan even when
  // indexed.
  const auto sparse = random_cube(7000, 0.8, 37);
  const auto mixed = Encoder(c).encode(sparse);
  EXPECT_GT(mixed.telemetry.probes_scan, 0u);
}

TEST(TelemetryTest, DictionaryFullEventFiresOnceWhenFrozen) {
  // 16-code dictionary with 2-bit chars freezes almost immediately.
  const LzwConfig tiny{.dict_size = 16, .char_bits = 2, .entry_bits = 8};
  const auto input = random_cube(3000, 0.2, 41);
  const auto r = Encoder(tiny).encode(input);
  EXPECT_EQ(r.telemetry.dict_full_events, 1u);

  // A run that never fills the dictionary reports none.
  const LzwConfig big{.dict_size = 65536, .char_bits = 7, .entry_bits = 255};
  EXPECT_EQ(Encoder(big).encode(random_cube(2000, 0.5, 43)).telemetry
                .dict_full_events,
            0u);
}

TEST(TelemetryTest, DecoderMirrorsEncoderStream) {
  const LzwConfig c{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};
  const auto input = random_cube(7000, 0.8, 53);
  const auto encoded = Encoder(c).encode(input);
  const auto decoded = Decoder(c).decode(encoded.codes, encoded.original_bits);
  const DecoderTelemetry& tel = decoded.telemetry;

  EXPECT_EQ(tel.codes_consumed, encoded.codes.size());
  EXPECT_EQ(tel.expansion_chars.snapshot().count, encoded.codes.size());
  EXPECT_EQ(tel.expansion_chars.snapshot().sum, encoded.input_chars);
  // The decoder learns one entry per code after the first, minus freezes —
  // never more than the encoder's own dictionary growth plus the trailing
  // entry it alone creates.
  EXPECT_GE(tel.entries_added + 1, encoded.telemetry.entries_added);
}

TEST(TelemetryTest, DecoderCountsKwKwKCodes) {
  // An all-zeros run ("aaaa" over 2-bit chars) encodes as [a, 4, a] where 4
  // is the entry the decoder has not finished learning — the classic KwKwK
  // case.
  const LzwConfig c{.dict_size = 64, .char_bits = 2, .entry_bits = 16};
  TritVector v;
  for (int i = 0; i < 8; ++i) v.push_back(Trit::Zero);
  const auto encoded = Encoder(c).encode(v);
  const auto decoded = Decoder(c).decode(encoded.codes, encoded.original_bits);
  EXPECT_GT(decoded.telemetry.kwkwk_codes, 0u);
}

TEST(TelemetryTest, ToJsonIsDeterministic) {
  const LzwConfig c{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};
  const auto input = random_cube(4000, 0.85, 59);
  const auto a = Encoder(c).encode(input);
  const auto b = Encoder(c).encode(input);
  EXPECT_EQ(a.telemetry.to_json(), b.telemetry.to_json());
  EXPECT_NE(a.telemetry.to_json().find("\"probes_fast\""), std::string::npos);
}

}  // namespace
}  // namespace tdc::lzw
