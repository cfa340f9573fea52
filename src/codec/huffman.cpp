#include "codec/huffman.h"

#include <algorithm>
#include <cassert>
#include <queue>

#include "core/contracts.h"
#include "core/error.h"

namespace tdc::codec {

namespace {

/// A ternary block as (value, care) machine words.
struct TernaryBlock {
  std::uint64_t value = 0;
  std::uint64_t care = 0;

  bool compatible(std::uint64_t pattern) const {
    return ((pattern ^ value) & care) == 0;
  }
};

/// Don't-care-aware clustering: each block joins the first cluster whose
/// accumulated pattern it is compatible with, further specifying that
/// pattern (the greedy codebook construction of the selective-Huffman
/// schemes). Returns clusters ordered by descending frequency.
struct Cluster {
  std::uint64_t value = 0;
  std::uint64_t care = 0;
  std::uint64_t count = 0;
};

std::vector<Cluster> cluster_blocks(const std::vector<TernaryBlock>& blocks) {
  std::vector<Cluster> clusters;
  for (const TernaryBlock& b : blocks) {
    bool placed = false;
    for (Cluster& c : clusters) {
      // Compatible iff no position is specified differently in both.
      if (((c.value ^ b.value) & (c.care & b.care)) != 0) continue;
      c.value |= b.value & ~c.care;
      c.care |= b.care;
      ++c.count;
      placed = true;
      break;
    }
    if (!placed) {
      clusters.push_back(Cluster{b.value & b.care, b.care, 1});
    }
  }
  std::stable_sort(clusters.begin(), clusters.end(),
                   [](const Cluster& a, const Cluster& b) { return a.count > b.count; });
  return clusters;
}

/// Canonical Huffman code lengths for the given symbol weights
/// (last symbol = escape). Returns (code, length) per symbol.
std::vector<std::pair<std::uint32_t, std::uint32_t>> build_huffman(
    const std::vector<std::uint64_t>& weights) {
  const std::size_t n = weights.size();
  assert(n >= 1);
  if (n == 1) return {{0, 1}};

  struct Node {
    std::uint64_t weight;
    int left;   // -1 for leaf
    int right;
    std::size_t symbol;
  };
  std::vector<Node> nodes;
  using Item = std::pair<std::uint64_t, int>;  // (weight, node index)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  for (std::size_t s = 0; s < n; ++s) {
    nodes.push_back(Node{weights[s] + 1, -1, -1, s});  // +1: no zero weights
    heap.emplace(nodes.back().weight, static_cast<int>(s));
  }
  while (heap.size() > 1) {
    const auto [wa, a] = heap.top();
    heap.pop();
    const auto [wb, b] = heap.top();
    heap.pop();
    nodes.push_back(Node{wa + wb, a, b, 0});
    heap.emplace(wa + wb, static_cast<int>(nodes.size() - 1));
  }

  // Depth-first code assignment.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> codes(n);
  struct Frame {
    int node;
    std::uint32_t code;
    std::uint32_t len;
  };
  std::vector<Frame> stack{{heap.top().second, 0, 0}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const Node& nd = nodes[f.node];
    if (nd.left < 0) {
      codes[nd.symbol] = {f.code, std::max(1u, f.len)};
      continue;
    }
    stack.push_back({nd.left, f.code << 1, f.len + 1});
    stack.push_back({nd.right, (f.code << 1) | 1u, f.len + 1});
  }
  return codes;
}

}  // namespace

HuffmanResult huffman_encode(const bits::TritVector& input,
                             const HuffmanConfig& config) {
  TDC_REQUIRE(config.block_bits >= 1 && config.block_bits <= 32,
              "huffman_encode: block_bits must be in [1,32]");
  TDC_REQUIRE(config.codebook_size > 0, "huffman_encode: empty codebook");

  HuffmanResult result;
  result.config = config;
  result.original_bits = input.size();

  const std::uint32_t bb = config.block_bits;
  const std::size_t block_count = (input.size() + bb - 1) / bb;
  std::vector<TernaryBlock> blocks;
  blocks.reserve(block_count);
  for (std::size_t i = 0; i < block_count; ++i) {
    blocks.push_back(TernaryBlock{input.word(i * bb, bb), input.care_word(i * bb, bb)});
  }

  // Build the codebook from the most frequent clusters; X positions left
  // in a winning cluster are bound to 0.
  const auto clusters = cluster_blocks(blocks);
  const std::size_t kept = std::min<std::size_t>(config.codebook_size, clusters.size());

  std::vector<std::uint64_t> weights(kept + 1, 0);  // +1: escape symbol
  for (std::size_t s = 0; s < kept; ++s) weights[s] = clusters[s].count;
  std::uint64_t escaped = 0;
  for (const auto& c : clusters) escaped += c.count;
  for (std::size_t s = 0; s < kept; ++s) escaped -= clusters[s].count;
  weights[kept] = escaped;

  const auto codes = build_huffman(weights);
  for (std::size_t s = 0; s < kept; ++s) {
    result.codebook.push_back(HuffmanEntry{clusters[s].value & clusters[s].care,
                                           codes[s].first, codes[s].second});
  }
  result.escape_code = codes[kept].first;
  result.escape_len = codes[kept].second;

  // Encode each block: first compatible codebook pattern wins, else escape.
  for (const TernaryBlock& b : blocks) {
    bool coded = false;
    for (const HuffmanEntry& e : result.codebook) {
      if (b.compatible(e.pattern)) {
        result.stream.write(e.code, e.code_len);
        ++result.coded_blocks;
        coded = true;
        break;
      }
    }
    if (!coded) {
      result.stream.write(result.escape_code, result.escape_len);
      result.stream.write(b.value & b.care, bb);  // X -> 0
      ++result.escaped_blocks;
    }
  }
  return result;
}

bits::TritVector huffman_decode(const HuffmanResult& encoded) {
  const std::uint32_t bb = encoded.config.block_bits;
  bits::BitReader reader(encoded.stream);
  bits::TritVector out;

  while (out.size() < encoded.original_bits) {
    // Walk the prefix code: accumulate bits until they match a codebook
    // entry or the escape code of the same length.
    std::uint32_t acc = 0;
    std::uint32_t len = 0;
    std::uint64_t pattern = 0;
    bool is_escape = false;
    for (;;) {
      acc = (acc << 1) | (reader.read_bit() ? 1u : 0u);
      ++len;
      if (len == encoded.escape_len && acc == encoded.escape_code) {
        is_escape = true;
        break;
      }
      bool found = false;
      for (const HuffmanEntry& e : encoded.codebook) {
        if (e.code_len == len && e.code == acc) {
          pattern = e.pattern;
          found = true;
          break;
        }
      }
      if (found) break;
      if (len > 64) {
        Error{ErrorKind::InvalidInput, "huffman_decode: bad prefix code"}.raise();
      }
    }
    if (is_escape) pattern = reader.read(bb);
    for (std::uint32_t i = bb; i-- > 0 && out.size() < encoded.original_bits;) {
      out.push_back(((pattern >> i) & 1) != 0 ? bits::Trit::One : bits::Trit::Zero);
    }
  }
  return out;
}

void put_huffman_section(std::vector<std::uint8_t>& out, const HuffmanResult& coded) {
  bits::put_u32(out, coded.config.block_bits);
  bits::put_u32(out, coded.config.codebook_size);
  bits::put_u32(out, static_cast<std::uint32_t>(coded.codebook.size()));
  bits::put_u32(out, coded.escape_code);
  bits::put_u32(out, coded.escape_len);
  for (const HuffmanEntry& e : coded.codebook) {
    bits::put_u64(out, e.pattern);
    bits::put_u32(out, e.code);
    bits::put_u32(out, e.code_len);
  }
  bits::put_stream(out, coded.stream);
}

std::string get_huffman_section(bits::ByteCursor& cur, HuffmanResult& coded) {
  std::uint32_t entry_count = 0;
  if (!cur.get_u32(coded.config.block_bits) ||
      !cur.get_u32(coded.config.codebook_size) || !cur.get_u32(entry_count) ||
      !cur.get_u32(coded.escape_code) || !cur.get_u32(coded.escape_len)) {
    return "truncated Huffman header";
  }
  if (entry_count > (1u << 16) || coded.escape_len > 32) {
    return "implausible codebook geometry";
  }
  coded.codebook.resize(entry_count);
  for (HuffmanEntry& e : coded.codebook) {
    if (!cur.get_u64(e.pattern) || !cur.get_u32(e.code) || !cur.get_u32(e.code_len)) {
      return "truncated codebook entry";
    }
    if (e.code_len < 1 || e.code_len > 32) {
      return "codebook code length out of range";
    }
  }
  if (!cur.get_stream(coded.stream) || !cur.exhausted()) {
    return "truncated Huffman stream";
  }
  return {};
}

}  // namespace tdc::codec
