// Mixed-codec selection vs pure LZW: the committed comparison behind the
// `--codec auto` guarantee. For every circuit profile in the paper's
// 12-circuit suite — plus synthetic text and binary corpora outside the
// scan-stream distribution — the table reports the pure-LZW ratio, the
// `auto` per-chunk selection ratio (heuristic pick raced against LZW, ties
// kept by LZW, so auto can never lose), and the `race` top-2 ratio at a
// finer chunk granularity where different chunks genuinely pick different
// winners.
//
// Every `auto` row is backed by a full decode_records round trip with a
// care-bit coverage check, and the bench exits nonzero if any auto row
// comes out larger than pure LZW — the acceptance gate, runnable in CI.
// It also exits nonzero if the tuned RLE (codec::best_alternating_rle),
// which sizes its grid from one run pass, differs from the seven-encode
// reference (tests/reference_encoders.h) on any 4096-trit chunk of any
// corpus — the chunks race@4k and auto@4096 rank it on.
//
// Per-corpus points fan out across a thread pool (--jobs N / $TDC_JOBS);
// rows are collected in suite order, so output is identical for any N.
#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

#include "bits/rng.h"
#include "codec/select.h"
#include "exp/bench_json.h"
#include "exp/flow.h"
#include "exp/table.h"
#include "exp/thread_pool.h"
#include "reference_encoders.h"

namespace {

using tdc::bits::Trit;
using tdc::bits::TritVector;

/// One corpus point: a fully prepared trit stream plus the LZW
/// parameterization pure LZW (and the auto/race LZW candidate) uses.
struct Corpus {
  std::string name;
  TritVector stream;
  tdc::lzw::LzwConfig lzw;
};

/// Fully specified trits from bytes, MSB first — how text/binary corpora
/// enter the scan-stream domain.
TritVector bytes_to_trits(const std::vector<std::uint8_t>& bytes) {
  TritVector v(bytes.size() * 8);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (unsigned b = 0; b < 8; ++b) {
      v.set(i * 8 + b, ((bytes[i] >> (7 - b)) & 1u) ? Trit::One : Trit::Zero);
    }
  }
  return v;
}

std::vector<Corpus> synthetic_corpora() {
  std::vector<Corpus> out;

  // English-like text: a paragraph repeated to ~8 KiB. Byte-granular
  // repetition with zero don't-cares — BWT+MTF+Huffman territory.
  const std::string paragraph =
      "the quick brown fox jumps over the lazy dog while the embedded "
      "tester streams compressed care bits into the scan chain and the "
      "dictionary learns every recurring phrase of the pattern set ";
  std::vector<std::uint8_t> text;
  while (text.size() < 8192) {
    text.insert(text.end(), paragraph.begin(), paragraph.end());
  }
  text.resize(8192);
  out.push_back({"text_en", bytes_to_trits(text), tdc::lzw::LzwConfig{}});

  // Incompressible binary: uniform random bytes. Nothing should win big;
  // the point is that auto still never loses to LZW.
  tdc::bits::Rng rng(0x5eed);
  std::vector<std::uint8_t> noise(8192);
  for (auto& b : noise) b = static_cast<std::uint8_t>(rng.below(256));
  out.push_back({"binary_rand", bytes_to_trits(noise), tdc::lzw::LzwConfig{}});

  // Sparse binary: long zero runs with occasional set bytes — classic
  // run-length territory, far from the LZW sweet spot.
  std::vector<std::uint8_t> sparse(8192, 0);
  for (std::size_t i = 0; i < sparse.size(); i += 97) {
    sparse[i] = static_cast<std::uint8_t>(rng.below(256));
  }
  out.push_back({"binary_sparse", bytes_to_trits(sparse), tdc::lzw::LzwConfig{}});
  return out;
}

struct Row {
  std::vector<std::string> cells;
  std::string json;
  bool auto_ok = false;  ///< auto_bits <= lzw_bits and round trip covered
  bool rle_ok = true;    ///< tuned RLE equals the reference on every chunk
  std::size_t chunks = 0;
};

/// True when the tuned RLE of `chunk` equals the seven-encode reference:
/// the same configuration, runs and stream.
bool tuned_rle_matches_reference(const TritVector& chunk) {
  const tdc::codec::RleResult got = tdc::codec::best_alternating_rle(chunk);
  const tdc::codec::RleResult want = tdc::reference::reference_best_rle(
      chunk, [](const TritVector& in, const tdc::codec::RleConfig& config) {
        return tdc::codec::alternating_rle_encode(in, config);
      });
  return got.config.run_code == want.config.run_code &&
         got.config.golomb_m == want.config.golomb_m && got.runs == want.runs &&
         got.stream.bit_count() == want.stream.bit_count() &&
         got.stream.bytes() == want.stream.bytes();
}

tdc::codec::EncodedChunks encode(const Corpus& corpus, const std::string& mode,
                                 std::uint32_t chunk_trits) {
  tdc::codec::SelectOptions options =
      tdc::codec::parse_codec_mode(mode).value_or_throw();
  options.lzw = corpus.lzw;
  if (chunk_trits != 0) options.chunk_trits = chunk_trits;
  return tdc::codec::encode_chunks(corpus.stream, options).value_or_throw();
}

/// "lzw x3, bwt x1" in first-seen order.
std::string picks_summary(const tdc::codec::EncodedChunks& chunks) {
  std::vector<std::pair<std::string, int>> counts;
  for (const auto& choice : chunks.choices) {
    bool found = false;
    for (auto& [name, n] : counts) {
      if (name == choice.codec) { ++n; found = true; break; }
    }
    if (!found) counts.emplace_back(choice.codec, 1);
  }
  std::string out;
  for (const auto& [name, n] : counts) {
    if (!out.empty()) out += ", ";
    out += name + " x" + std::to_string(n);
  }
  return out;
}

Row measure(const Corpus& corpus) {
  // Race at a finer granularity so multi-chunk selection actually mixes;
  // pure LZW and auto run at the default one-chunk granularity, where
  // chunked LZW is bit-identical to the whole-buffer encoder.
  const tdc::codec::EncodedChunks lzw = encode(corpus, "lzw", 0);
  const tdc::codec::EncodedChunks auto_sel = encode(corpus, "auto", 0);
  const tdc::codec::EncodedChunks race = encode(corpus, "race", 4096);

  const auto ratio = [&](const tdc::codec::EncodedChunks& c) {
    return tdc::codec::ratio_percent(corpus.stream.size(), c.stats_bits);
  };

  const tdc::Result<TritVector> decoded =
      tdc::codec::decode_records(auto_sel.records, auto_sel.original_bits);
  const bool covered = decoded.ok() && decoded.value().fully_specified() &&
                       corpus.stream.covered_by(decoded.value());

  Row row;
  row.auto_ok = covered && auto_sel.stats_bits <= lzw.stats_bits;
  constexpr std::size_t kChunk = 4096;
  for (std::size_t pos = 0; pos < corpus.stream.size(); pos += kChunk, ++row.chunks) {
    const std::size_t len = std::min(kChunk, corpus.stream.size() - pos);
    row.rle_ok = row.rle_ok && tuned_rle_matches_reference(corpus.stream.slice(pos, len));
  }
  row.cells = {corpus.name,
               tdc::exp::num(corpus.stream.size()),
               tdc::exp::pct(ratio(lzw)),
               tdc::exp::pct(ratio(auto_sel)),
               picks_summary(auto_sel),
               tdc::exp::pct(ratio(race)),
               picks_summary(race),
               row.auto_ok ? "ok" : "FAIL"};
  row.json = "    {\"corpus\": \"" + tdc::exp::json_escape(corpus.name) +
             "\", \"trits\": " + std::to_string(corpus.stream.size()) +
             ", \"lzw_percent\": " + tdc::exp::json_number(ratio(lzw), 2) +
             ", \"auto_percent\": " + tdc::exp::json_number(ratio(auto_sel), 2) +
             ", \"auto_picks\": \"" + tdc::exp::json_escape(picks_summary(auto_sel)) +
             "\", \"race_percent\": " + tdc::exp::json_number(ratio(race), 2) +
             ", \"race_picks\": \"" + tdc::exp::json_escape(picks_summary(race)) +
             "\", \"auto_never_loses\": " + (row.auto_ok ? "true" : "false") + "}";
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tdc;
  const unsigned jobs = exp::sweep_jobs(argc, argv);
  std::printf("Codec selection — mixed-codec (--codec auto/race) vs pure LZW\n\n");

  // The 12 circuit profiles at their paper parameterizations, then the
  // out-of-distribution corpora.
  std::vector<Corpus> corpora;
  for (const gen::CircuitProfile& profile : gen::table3_suite()) {
    const exp::PreparedCircuit pc = exp::prepare(profile);
    corpora.push_back({profile.name, pc.tests.serialize(),
                       exp::paper_lzw_config(profile)});
  }
  for (auto& extra : synthetic_corpora()) corpora.push_back(std::move(extra));

  exp::ThreadPool pool(jobs);
  const std::vector<Row> rows = exp::parallel_map(pool, corpora, measure);

  exp::Table table({"Corpus", "Trits", "LZW", "auto", "auto picks",
                    "race@4k", "race picks", "gate"});
  for (const auto& row : rows) table.add_row(row.cells);
  std::printf("%s\n", table.render().c_str());

  bool all_ok = true;
  for (const auto& row : rows) all_ok = all_ok && row.auto_ok;
  std::printf("auto-never-loses gate: %s (every auto row <= its LZW row and "
              "round-trips with care-bit coverage)\n",
              all_ok ? "PASS" : "FAIL");
  bool rle_ok = true;
  std::size_t chunks = 0;
  for (const auto& row : rows) {
    rle_ok = rle_ok && row.rle_ok;
    chunks += row.chunks;
  }
  std::printf("tuned-RLE sizing: %s (one-pass grid == seven encodes on %zu 4096-trit "
              "chunks)\n",
              rle_ok ? "PASS" : "FAIL", chunks);

  std::string json = "{\n  \"bench\": \"codec_selection\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i) json += ",\n";
    json += rows[i].json;
  }
  json += "\n  ],\n  \"auto_never_loses\": ";
  json += all_ok ? "true" : "false";
  json += "\n}\n";
  if (!exp::write_bench_json("codec_selection", json)) return 1;
  return all_ok && rle_ok ? 0 : 1;
}
