#include "codec/bwt.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <string>
#include <utility>

#include "bits/bitstream.h"
#include "bits/wire.h"
#include "core/contracts.h"

namespace tdc::codec {

namespace {

constexpr std::uint32_t kMinBlockBytes = 16;
constexpr std::uint32_t kMaxBlockBytes = 1u << 24;
constexpr std::uint64_t kMaxPackedBytes = 1ull << 32;

Error malformed(const std::string& what) {
  return Error{ErrorKind::InvalidInput, "BWT: malformed chunk payload: " + what};
}

// -------------------------------------------------------------- bit packing

/// Repeat-fills the don't-cares and packs the bits into bytes, MSB first;
/// a trailing partial byte is zero-padded (the decoder truncates at the
/// trit count).
std::vector<std::uint8_t> pack_bits(const bits::TritVector& input) {
  const bits::TritVector filled = input.filled_repeat_last();
  std::vector<std::uint8_t> bytes((filled.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < filled.size(); ++i) {
    if (filled.get(i) == bits::Trit::One) {
      bytes[i / 8] |= static_cast<std::uint8_t>(0x80u >> (i % 8));
    }
  }
  return bytes;
}

bits::TritVector unpack_bits(const std::vector<std::uint8_t>& bytes,
                             std::uint64_t trit_count) {
  bits::TritVector out;
  for (std::uint64_t i = 0; i < trit_count; ++i) {
    const bool one = (bytes[static_cast<std::size_t>(i / 8)] >> (7 - i % 8)) & 1u;
    out.push_back(one ? bits::Trit::One : bits::Trit::Zero);
  }
  return out;
}

// ---------------------------------------------------------------------- BWT

/// Sorts all cyclic rotations of `block` by rank doubling and returns the
/// last column plus the primary index (the sorted position of rotation 0).
/// Ties between fully periodic rotations are broken by start index, which
/// is immaterial for the inverse transform (equal rotations are identical
/// rows) but keeps the output deterministic.
std::pair<std::vector<std::uint8_t>, std::uint32_t> bwt_forward(
    const std::uint8_t* block, std::size_t n) {
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::vector<std::uint32_t> rank(n), next_rank(n);
  for (std::size_t i = 0; i < n; ++i) rank[i] = block[i];

  for (std::size_t k = 1; k < n; k *= 2) {
    const auto key = [&](std::uint32_t i) {
      return std::pair<std::uint32_t, std::uint32_t>{rank[i], rank[(i + k) % n]};
    };
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      const auto ka = key(a);
      const auto kb = key(b);
      return ka != kb ? ka < kb : a < b;
    });
    next_rank[order[0]] = 0;
    bool distinct = true;
    for (std::size_t i = 1; i < n; ++i) {
      const bool equal = key(order[i]) == key(order[i - 1]);
      next_rank[order[i]] = next_rank[order[i - 1]] + (equal ? 0u : 1u);
      distinct = distinct && !equal;
    }
    rank.swap(next_rank);
    if (distinct) break;
  }
  // Ranks may still collide for periodic blocks; order[] already carries
  // the index tiebreak from the last sort pass.
  std::vector<std::uint8_t> last(n);
  std::uint32_t primary = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t start = order[i];
    last[i] = block[(start + n - 1) % n];
    if (start == 0) primary = static_cast<std::uint32_t>(i);
  }
  return {std::move(last), primary};
}

/// Inverse transform via the LF mapping: row `primary` of the sorted
/// rotation matrix is the original block; walking LF from it emits the
/// block back to front.
Result<std::vector<std::uint8_t>> bwt_inverse(const std::vector<std::uint8_t>& last,
                                              std::uint32_t primary) {
  const std::size_t n = last.size();
  if (primary >= n) return malformed("primary index out of range");
  std::array<std::uint32_t, 256> counts{};
  for (const std::uint8_t c : last) ++counts[c];
  std::array<std::uint32_t, 256> first{};
  std::uint32_t total = 0;
  for (std::size_t c = 0; c < 256; ++c) {
    first[c] = total;
    total += counts[c];
  }
  // lf[i] = first[last[i]] + (occurrences of last[i] before i)
  std::vector<std::uint32_t> lf(n);
  std::array<std::uint32_t, 256> seen{};
  for (std::size_t i = 0; i < n; ++i) {
    lf[i] = first[last[i]] + seen[last[i]];
    ++seen[last[i]];
  }
  std::vector<std::uint8_t> block(n);
  std::uint32_t row = primary;
  for (std::size_t k = n; k-- > 0;) {
    block[k] = last[row];
    row = lf[row];
  }
  return block;
}

// ---------------------------------------------------------------------- MTF

std::vector<std::uint8_t> mtf_forward(const std::vector<std::uint8_t>& data) {
  std::array<std::uint8_t, 256> table;
  for (std::size_t i = 0; i < 256; ++i) table[i] = static_cast<std::uint8_t>(i);
  std::vector<std::uint8_t> out(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::uint8_t c = data[i];
    std::uint8_t rank = 0;
    while (table[rank] != c) ++rank;
    out[i] = rank;
    for (std::uint8_t r = rank; r > 0; --r) table[r] = table[r - 1];
    table[0] = c;
  }
  return out;
}

std::vector<std::uint8_t> mtf_inverse(const std::vector<std::uint8_t>& ranks) {
  std::array<std::uint8_t, 256> table;
  for (std::size_t i = 0; i < 256; ++i) table[i] = static_cast<std::uint8_t>(i);
  std::vector<std::uint8_t> out(ranks.size());
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const std::uint8_t rank = ranks[i];
    const std::uint8_t c = table[rank];
    out[i] = c;
    for (std::uint8_t r = rank; r > 0; --r) table[r] = table[r - 1];
    table[0] = c;
  }
  return out;
}

/// The MTF byte stream as a fully specified TritVector (8 bits per byte,
/// MSB first) — the shape the selective Huffman coder consumes.
bits::TritVector bytes_as_trits(const std::vector<std::uint8_t>& bytes) {
  bits::TritVector out;
  for (const std::uint8_t b : bytes) {
    for (int bit = 7; bit >= 0; --bit) {
      out.push_back(((b >> bit) & 1u) ? bits::Trit::One : bits::Trit::Zero);
    }
  }
  return out;
}

}  // namespace

BwtResult bwt_mtf_huffman_encode(const bits::TritVector& input,
                                 const BwtConfig& config) {
  TDC_REQUIRE(config.block_bytes >= kMinBlockBytes &&
                  config.block_bytes <= kMaxBlockBytes,
              "bwt_mtf_huffman_encode: block_bytes out of range");
  TDC_REQUIRE(config.huffman.block_bits == 8,
              "bwt_mtf_huffman_encode: the MTF stream is byte-oriented");

  const std::vector<std::uint8_t> packed = pack_bits(input);
  const std::uint32_t block_count = static_cast<std::uint32_t>(
      (packed.size() + config.block_bytes - 1) / config.block_bytes);

  std::vector<std::uint8_t> transformed;
  transformed.reserve(packed.size());
  std::vector<std::uint32_t> primaries;
  primaries.reserve(block_count);
  for (std::uint32_t b = 0; b < block_count; ++b) {
    const std::size_t begin = static_cast<std::size_t>(b) * config.block_bytes;
    const std::size_t len = std::min<std::size_t>(config.block_bytes, packed.size() - begin);
    auto [last, primary] = bwt_forward(packed.data() + begin, len);
    transformed.insert(transformed.end(), last.begin(), last.end());
    primaries.push_back(primary);
  }

  const std::vector<std::uint8_t> ranks = mtf_forward(transformed);
  const HuffmanResult coded = huffman_encode(bytes_as_trits(ranks), config.huffman);

  BwtResult result;
  result.config = config;
  result.original_bits = input.size();
  bits::put_u32(result.payload, config.block_bytes);
  bits::put_u64(result.payload, packed.size());
  bits::put_u32(result.payload, block_count);
  for (const std::uint32_t p : primaries) bits::put_u32(result.payload, p);
  put_huffman_section(result.payload, coded);
  return result;
}

Result<bits::TritVector> bwt_mtf_huffman_decode(
    const std::vector<std::uint8_t>& payload, std::uint64_t trit_count) {
  bits::ByteCursor cur{payload};
  std::uint32_t block_bytes = 0;
  std::uint64_t packed_bytes = 0;
  std::uint32_t block_count = 0;
  if (!cur.get_u32(block_bytes) || !cur.get_u64(packed_bytes) ||
      !cur.get_u32(block_count)) {
    return malformed("truncated geometry header");
  }
  if (block_bytes < kMinBlockBytes || block_bytes > kMaxBlockBytes) {
    return malformed("block size out of range");
  }
  if (packed_bytes != (trit_count + 7) / 8 || packed_bytes > kMaxPackedBytes) {
    return malformed("packed byte count does not match the trit count");
  }
  const std::uint64_t expected_blocks = (packed_bytes + block_bytes - 1) / block_bytes;
  if (block_count != expected_blocks) {
    return malformed("block count does not match the geometry");
  }
  std::vector<std::uint32_t> primaries(block_count);
  for (std::uint32_t& p : primaries) {
    if (!cur.get_u32(p)) return malformed("truncated primary-index table");
  }

  HuffmanResult coded;
  if (std::string why = get_huffman_section(cur, coded); !why.empty()) {
    return malformed(why);
  }
  if (coded.config.block_bits != 8) {
    return malformed("the MTF stream is not coded in 8-bit blocks");
  }
  coded.original_bits = packed_bytes * 8;

  bits::TritVector mtf_trits;
  try {
    mtf_trits = huffman_decode(coded);
  } catch (const TdcErrorBase& e) {
    return e.error();
  } catch (const std::exception& e) {
    return malformed(e.what());
  }
  if (mtf_trits.size() < packed_bytes * 8) {
    return malformed("Huffman stream expands short of the MTF bytes");
  }
  std::vector<std::uint8_t> ranks(static_cast<std::size_t>(packed_bytes), 0);
  for (std::uint64_t i = 0; i < packed_bytes * 8; ++i) {
    if (mtf_trits.get(static_cast<std::size_t>(i)) == bits::Trit::One) {
      ranks[static_cast<std::size_t>(i / 8)] |=
          static_cast<std::uint8_t>(0x80u >> (i % 8));
    }
  }

  const std::vector<std::uint8_t> transformed = mtf_inverse(ranks);
  std::vector<std::uint8_t> packed;
  packed.reserve(transformed.size());
  for (std::uint32_t b = 0; b < block_count; ++b) {
    const std::size_t begin = static_cast<std::size_t>(b) * block_bytes;
    const std::size_t len =
        std::min<std::size_t>(block_bytes, transformed.size() - begin);
    Result<std::vector<std::uint8_t>> block = bwt_inverse(
        std::vector<std::uint8_t>(transformed.begin() + static_cast<std::ptrdiff_t>(begin),
                                  transformed.begin() + static_cast<std::ptrdiff_t>(begin + len)),
        primaries[b]);
    if (!block.ok()) return block.error();
    packed.insert(packed.end(), block.value().begin(), block.value().end());
  }
  return unpack_bits(packed, trit_count);
}

}  // namespace tdc::codec
