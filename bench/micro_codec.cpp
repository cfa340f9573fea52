// Google-benchmark micro suite: raw throughput of the codec and simulator
// building blocks. These are engineering (not paper-reproduction) numbers;
// the table*_ binaries reproduce the paper's results.
//
// After the registered benchmarks run, a dedicated path harness times the
// reference encoder (tests/reference_encoders.h: child-by-child list walk +
// per-character word()/care_word() re-slice) against lzw::Encoder
// (policy-ordered slabs, slab match kernel, one-pass CharCursor), then the
// encoder under each of the five tie-break policies, the three decode paths —
// lzw::Decoder over the packed stream, the Fig. 5 cycle model, and
// codec::decode_records over the corpus cut into 4096-trit LZW records — and
// the .tests text codec (TritVector::from_string / to_string, and the
// multi-line reader scan::read_test_stream) on a dense and a 90%-X corpus.
// Per-class rows then time every policy on corpora dominated
// by all-X, partly specified and fully specified characters, with the share
// of characters encoded after the dictionary fills. It prints chars/sec
// for every path and writes the numbers to BENCH_micro_codec.json
// (override the path with $TDC_BENCH_JSON) so throughput trajectories can
// be tracked across commits. It exits nonzero when a policy's output
// differs from the reference's, when a decode path's output misses a care
// bit of the input, or when formatting and parsing a corpus does not give
// it back.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "bits/rng.h"
#include "bits/simd.h"
#include "bits/tritvector.h"
#include "codec/huffman.h"
#include "codec/lfsr_reseed.h"
#include "codec/lz77.h"
#include "codec/rle.h"
#include "codec/select.h"
#include "engine/manifest.h"
#include "fault/fsim.h"
#include "gen/circuit_gen.h"
#include "hw/decompressor.h"
#include "hw/decompressor_rtl.h"
#include "lzw/decoder.h"
#include "lzw/encoder.h"
#include "reference_encoders.h"
#include "scan/testset_io.h"
#include "sim/logicsim.h"

namespace {

using namespace tdc;

bits::TritVector random_cube(std::size_t n, double x_density, std::uint64_t seed) {
  bits::Rng rng(seed);
  bits::TritVector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!rng.chance(x_density)) {
      v.set(i, rng.bit() ? bits::Trit::One : bits::Trit::Zero);
    }
  }
  return v;
}

const lzw::LzwConfig kConfig{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};

/// Character classes of the per-class rows: every bit X, some bits X and
/// some specified, every bit specified.
enum class CharClass { AllX, Partial, Full };

/// A corpus of `n` trits, in kConfig.char_bits-wide characters, of which
/// `share` are of class `dominant` and the rest split evenly between the
/// two other classes. Specified bits are fair coin flips.
bits::TritVector class_cube(std::size_t n, CharClass dominant, double share,
                            std::uint64_t seed) {
  constexpr CharClass kClasses[] = {CharClass::AllX, CharClass::Partial, CharClass::Full};
  bits::Rng rng(seed);
  bits::TritVector v(n);
  const std::size_t cc = kConfig.char_bits;
  for (std::size_t pos = 0; pos < n; pos += cc) {
    CharClass c = dominant;
    if (!rng.chance(share)) {
      c = kClasses[rng.below(3)];
      while (c == dominant) c = kClasses[rng.below(3)];
    }
    if (c == CharClass::AllX) continue;
    const std::size_t len = std::min(cc, n - pos);
    // A partial character needs at least one X and one specified bit.
    std::uint64_t care = bits::low_mask(static_cast<unsigned>(len));
    if (c == CharClass::Partial && len > 1) {
      do {
        care = rng.next_u64() & bits::low_mask(static_cast<unsigned>(len));
      } while (care == 0 || care == bits::low_mask(static_cast<unsigned>(len)));
    }
    for (std::size_t b = 0; b < len; ++b) {
      if ((care >> b) & 1u) v.set(pos + b, rng.bit() ? bits::Trit::One : bits::Trit::Zero);
    }
  }
  return v;
}

void BM_LzwEncodeDynamic(benchmark::State& state) {
  const auto input = random_cube(static_cast<std::size_t>(state.range(0)), 0.9, 1);
  const lzw::Encoder enc(kConfig);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encode(input));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) / 8);
}
BENCHMARK(BM_LzwEncodeDynamic)->Arg(1 << 12)->Arg(1 << 15)->Arg(1 << 18);

// The reference encoder (tests/reference_encoders.h) under First; the name
// is kept from when it was the library's LegacyScan strategy.
void BM_LzwEncodeLegacyScan(benchmark::State& state) {
  const auto input = random_cube(static_cast<std::size_t>(state.range(0)), 0.9, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        reference::reference_lzw_encode(kConfig, lzw::Tiebreak::First, input));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) / 8);
}
BENCHMARK(BM_LzwEncodeLegacyScan)->Arg(1 << 15);

void BM_LzwEncodeZeroFill(benchmark::State& state) {
  const auto input = random_cube(static_cast<std::size_t>(state.range(0)), 0.9, 1);
  const lzw::Encoder enc(kConfig);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encode(input, lzw::XAssignMode::ZeroFill));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) / 8);
}
BENCHMARK(BM_LzwEncodeZeroFill)->Arg(1 << 15);

void BM_LzwDecode(benchmark::State& state) {
  const auto input = random_cube(static_cast<std::size_t>(state.range(0)), 0.9, 1);
  const auto encoded = lzw::Encoder(kConfig).encode(input);
  const lzw::Decoder dec(kConfig);
  for (auto _ : state) {
    bits::BitReader reader(encoded.stream);
    benchmark::DoNotOptimize(
        dec.decode_stream(reader, encoded.code_count, encoded.original_bits));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) / 8);
}
BENCHMARK(BM_LzwDecode)->Arg(1 << 15);

void BM_Lz77Encode(benchmark::State& state) {
  const auto input = random_cube(static_cast<std::size_t>(state.range(0)), 0.9, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec::lz77_encode(input));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) / 8);
}
BENCHMARK(BM_Lz77Encode)->Arg(1 << 12)->Arg(1 << 15);

void BM_AltRleEncode(benchmark::State& state) {
  const auto input = random_cube(static_cast<std::size_t>(state.range(0)), 0.9, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        codec::alternating_rle_encode(input, codec::RleConfig{codec::RunCode::Golomb, 16}));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) / 8);
}
BENCHMARK(BM_AltRleEncode)->Arg(1 << 15);

void BM_HuffmanEncode(benchmark::State& state) {
  const auto input = random_cube(1 << 15, 0.9, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec::huffman_encode(input, codec::HuffmanConfig{8, 16}));
  }
  state.SetBytesProcessed(state.iterations() * (1 << 15) / 8);
}
BENCHMARK(BM_HuffmanEncode);

void BM_LfsrReseedEncode(benchmark::State& state) {
  bits::Rng rng(3);
  std::vector<bits::TritVector> cubes;
  for (int p = 0; p < 64; ++p) {
    bits::TritVector v(256);
    for (int k = 0; k < 24; ++k) {
      v.set(rng.below(256), rng.bit() ? bits::Trit::One : bits::Trit::Zero);
    }
    cubes.push_back(std::move(v));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec::lfsr_reseed_encode(cubes));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_LfsrReseedEncode);

void BM_TdiffGolombEncode(benchmark::State& state) {
  const auto input = random_cube(1 << 15, 0.9, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        codec::golomb_tdiff_encode(input, 128, codec::RleConfig{codec::RunCode::Golomb, 16}));
  }
  state.SetBytesProcessed(state.iterations() * (1 << 15) / 8);
}
BENCHMARK(BM_TdiffGolombEncode);

void BM_RtlDecompressorCycleSim(benchmark::State& state) {
  const auto input = random_cube(1 << 12, 0.9, 1);
  const auto encoded = lzw::Encoder(kConfig).encode(input);
  const hw::DecompressorRtl model(hw::HwConfig{.lzw = kConfig, .clock_ratio = 4});
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.run(encoded));
  }
}
BENCHMARK(BM_RtlDecompressorCycleSim);

void BM_HwDecompressorModel(benchmark::State& state) {
  const auto input = random_cube(1 << 15, 0.9, 1);
  const auto encoded = lzw::Encoder(kConfig).encode(input);
  const hw::DecompressorModel model(hw::HwConfig{.lzw = kConfig, .clock_ratio = 10});
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.run(encoded));
  }
}
BENCHMARK(BM_HwDecompressorModel);

void BM_LogicSim64(benchmark::State& state) {
  gen::GeneratorConfig cfg;
  cfg.pis = 32;
  cfg.pos = 16;
  cfg.ffs = 128;
  cfg.gates = static_cast<std::uint32_t>(state.range(0));
  cfg.seed = 3;
  const netlist::Netlist nl = gen::generate_circuit(cfg);
  sim::Sim64 sim(nl);
  bits::Rng rng(1);
  for (const auto g : nl.inputs()) sim.set(g, rng.next_u64());
  for (const auto g : nl.dffs()) sim.set(g, rng.next_u64());
  for (auto _ : state) {
    sim.run();
    benchmark::DoNotOptimize(sim.get(nl.outputs().front()));
  }
  // 64 patterns per run().
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_LogicSim64)->Arg(2000)->Arg(8000);

void BM_FaultSimBatch(benchmark::State& state) {
  gen::GeneratorConfig cfg;
  cfg.pis = 32;
  cfg.pos = 16;
  cfg.ffs = 64;
  cfg.gates = 1000;
  cfg.seed = 4;
  const netlist::Netlist nl = gen::generate_circuit(cfg);
  sim::Sim64 sim(nl);
  bits::Rng rng(1);
  for (const auto g : nl.inputs()) sim.set(g, rng.next_u64());
  for (const auto g : nl.dffs()) sim.set(g, rng.next_u64());
  sim.run();
  const auto faults = fault::collapsed_fault_list(nl);
  fault::FaultSimulator fsim(nl);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (const auto& f : faults) acc ^= fsim.detect_mask(sim, f);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * faults.size());
}
BENCHMARK(BM_FaultSimBatch);

void BM_TritVectorCareCount(benchmark::State& state) {
  const auto v = random_cube(1 << 18, 0.7, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.care_count());
  }
}
BENCHMARK(BM_TritVectorCareCount);

// ------------------------------------------------------- path harness

/// Chars/sec of one whole-corpus pass `run` over `chars` characters:
/// repeats passes until `kMinSeconds` of wall clock, best of `kRounds`.
template <class Fn>
double chars_per_sec(double chars, const Fn& run) {
  constexpr double kMinSeconds = 0.2;
  constexpr int kRounds = 3;
  double best = 0.0;
  for (int r = 0; r < kRounds; ++r) {
    std::uint64_t iters = 0;
    const auto start = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    do {
      run();
      ++iters;
      elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              start)
                    .count();
    } while (elapsed < kMinSeconds);
    best = std::max(best, chars * static_cast<double>(iters) / elapsed);
  }
  return best;
}

/// Width of the reader row's cubes: s9234f's, one of the Table 3 circuits.
/// Not a multiple of 64, so most cube lines start inside a plane word.
constexpr std::uint32_t kReaderWidth = 247;

/// `input` cut into whole `width`-trit cubes (a shorter tail is dropped).
scan::TestSet as_cubes(const bits::TritVector& input, std::uint32_t width) {
  scan::TestSet tests;
  tests.circuit = "corpus";
  tests.width = width;
  for (std::size_t at = 0; at + width <= input.size(); at += width) {
    tests.cubes.push_back(input.slice(at, width));
  }
  return tests;
}

/// lzw::Encoder chars/sec for one (corpus, policy) point.
double encode_chars_per_sec(const bits::TritVector& input, double chars,
                            lzw::Tiebreak tiebreak = lzw::Tiebreak::First) {
  const lzw::Encoder enc(kConfig, tiebreak);
  return chars_per_sec(chars, [&] { benchmark::DoNotOptimize(enc.encode(input)); });
}

/// The reference encoder's chars/sec under First.
double reference_chars_per_sec(const bits::TritVector& input, double chars) {
  return chars_per_sec(chars, [&] {
    benchmark::DoNotOptimize(
        reference::reference_lzw_encode(kConfig, lzw::Tiebreak::First, input));
  });
}

/// True when the encoder's code stream, code count and telemetry under
/// `tiebreak` equal the reference's.
bool matches_reference(const bits::TritVector& input, lzw::Tiebreak tiebreak) {
  const auto fast = lzw::Encoder(kConfig, tiebreak).encode(input);
  const auto ref = reference::reference_lzw_encode(kConfig, tiebreak, input);
  return fast.stream.bytes() == ref.stream.bytes() && fast.code_count == ref.code_count &&
         reference::telemetry_json(fast) == reference::telemetry_json(ref);
}

constexpr lzw::Tiebreak kPolicies[] = {lzw::Tiebreak::First, lzw::Tiebreak::LowestChar,
                                       lzw::Tiebreak::MostRecent, lzw::Tiebreak::MostChildren,
                                       lzw::Tiebreak::Lookahead};

struct Corpus {
  const char* name;
  double x_density;
  // Pre-PR-6 chars/sec on the reference runner (per-bit TritVector slicing,
  // bit-serial BitWriter, per-node-vector dictionary), pinned so every run
  // reports its gain against the same fixed origin. Only meaningful for the
  // default 2^15-bit corpus; the JSON carries the gain as null otherwise.
  double baseline_legacy;
  double baseline_indexed;
  // Decode chars/sec before the shared decode core (parent-chain decoder,
  // per-code-vector cycle model): the median of three best-of-3 runs of
  // this harness on a 4-vCPU Xeon VM, pinned the same way.
  double baseline_decoder;
  double baseline_model;
  // decode_records chars/sec with the decode core on lzw::Dictionary (the
  // encoder's slab trie): the median of five best-of-3 runs on the same VM,
  // each pinned to one CPU.
  double baseline_records;
  // Text chars/sec (one character per trit) of the per-character
  // from_string / to_string loops before the word-parallel text kernels,
  // pinned the same way on the same VM.
  double baseline_parse;
  double baseline_format;
  // Cube chars/sec (one per trit) of read_tests(text) + serialize() on the
  // reader row's text before scan::TestsReader: the median of five
  // best-of-3 runs on the same VM, each pinned to one CPU.
  double baseline_reader;
  // Indexed encode chars/sec per tie-break policy (kPolicies order) before
  // the slab match kernel (sibling-chain walk, hash index), pinned the
  // same way on the same VM.
  double baseline_tiebreak[std::size(kPolicies)];
};

/// The JSON baseline and gain fields of a row (null off the default corpus
/// size).
std::string gain_json(bool pinned, double rate, double baseline) {
  char gain[128];
  if (pinned) {
    std::snprintf(gain, sizeof gain,
                  "\"baseline_chars_per_sec\": %.0f, \"gain_vs_baseline\": %.3f",
                  baseline, rate / baseline);
  } else {
    std::snprintf(gain, sizeof gain,
                  "\"baseline_chars_per_sec\": null, \"gain_vs_baseline\": null");
  }
  return gain;
}

/// One tie-break, decode or text row: a path's chars/sec on a corpus, its
/// correctness flag (tie-break: output equals the reference's; decode:
/// covers every care bit of the input; text: formatting then parsing
/// returns the corpus), and the gain over the pinned baseline (null off the
/// default corpus size). `path_key` names the JSON key holding `path`.
/// Appends the row's table line to `table` and returns its JSON object.
std::string bench_row(const Corpus& c, const char* path_key, const char* path,
                      std::size_t bits, double rate, const char* flag_key, bool flag,
                      bool pinned, double baseline, std::string& table) {
  const char* flagged = flag ? "yes" : "NO";
  char line[160];
  if (pinned) {
    std::snprintf(line, sizeof line, "%-14s %-12s %16.0f %9s %10.2fx\n", c.name, path,
                  rate, flagged, rate / baseline);
  } else {
    std::snprintf(line, sizeof line, "%-14s %-12s %16.0f %9s %11s\n", c.name, path,
                  rate, flagged, "n/a");
  }
  table += line;
  char row[384];
  std::snprintf(row, sizeof row,
                "    {\"corpus\": \"%s\", \"%s\": \"%s\", \"x_density\": %.2f, "
                "\"input_bits\": %zu, \"chars_per_sec\": %.0f, \"%s\": %s, %s}",
                c.name, path_key, path, c.x_density, bits, rate, flag_key,
                flag ? "true" : "false", gain_json(pinned, rate, baseline).c_str());
  return row;
}

/// Joins JSON rows into the body of an array.
std::string json_rows(const std::vector<std::string>& rows) {
  std::string out;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out += rows[i] + (i + 1 < rows.size() ? ",\n" : "\n");
  }
  return out;
}

/// A per-class row corpus: every policy is timed on a class_cube() whose
/// characters are mostly of class `dominant`.
struct ClassCorpus {
  const char* name;
  CharClass dominant;
  // lzw::Encoder chars/sec per policy (kPolicies order) before
  // policy-ordered slabs, the carried Lookahead chain and the one-pass
  // cursor: the median of three best-of-3 runs of this harness on a 4-vCPU
  // Xeon VM, pinned like the baselines above.
  double baseline_policy[std::size(kPolicies)];
};

/// Share of `input`'s characters that `tiebreak` encodes after the
/// dictionary fills (0 when it never fills).
double post_fill_share(const bits::TritVector& input, lzw::Tiebreak tiebreak) {
  const std::uint64_t chars = (input.size() + kConfig.char_bits - 1) / kConfig.char_bits;
  std::uint32_t size = kConfig.literal_count();
  std::uint64_t after = 0;
  lzw::Encoder(kConfig, tiebreak)
      .encode(input, lzw::XAssignMode::Dynamic, 1, [&](const lzw::EncoderStep& step) {
        if (step.char_index >= chars) return;  // the final flush
        if (size >= kConfig.dict_size) ++after;
        if (step.new_entry != lzw::kNoCode) ++size;
      });
  return chars == 0 ? 0.0 : static_cast<double>(after) / static_cast<double>(chars);
}

/// Times the reference vs lzw::Encoder per corpus, prints the comparison,
/// writes the JSON trajectory file. Returns 0 on success.
int run_path_comparison() {
  constexpr std::size_t kDefaultBits = 1 << 15;
  // $TDC_BENCH_BITS shrinks the corpus for smoke profiles (CI perf job);
  // the pinned-baseline gain column only applies at the default size.
  std::size_t bits = kDefaultBits;
  if (const char* env = std::getenv("TDC_BENCH_BITS");
      env != nullptr && *env != '\0') {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) bits = static_cast<std::size_t>(v);
  }
  const std::size_t kBits = bits;
  const bool pinned = kBits == kDefaultBits;
  const Corpus corpora[] = {
      {"dense_x0.1", 0.1, 7462016.0, 17060744.0, 19110358.0, 8501895.0, 41256911.0,
       130692087.0, 229273160.0, 1408255473.0,
       {16377178.0, 15802133.0, 18609972.0, 21594033.0, 23130007.0}},
      {"sparse_x0.9", 0.9, 13488172.0, 26738851.0, 42778798.0, 18884487.0, 96724713.0,
       266148981.0, 222615079.0, 1420007352.0,
       {51779467.0, 21554348.0, 28847432.0, 19353293.0, 10452327.0}}};

  std::string json = "{\n  \"bench\": \"micro_codec\",\n  \"config\": {"
                     "\"dict_size\": " + std::to_string(kConfig.dict_size) +
                     ", \"char_bits\": " + std::to_string(kConfig.char_bits) +
                     ", \"entry_bits\": " + std::to_string(kConfig.entry_bits) +
                     ", \"simd_kernel\": \"" + bits::simd::active_kernel() +
                     "\", \"cpus\": " +
                     std::to_string(std::max(1u, std::thread::hardware_concurrency())) +
                     "},\n  \"comparisons\": [\n";
  std::printf("\nEncoder vs reference (chars/sec, best of 3):\n");
  std::printf("%-14s %16s %16s %9s %12s\n", "corpus", "reference", "encoder",
              "speedup", "vs baseline");
  bool first = true;
  std::vector<std::string> tiebreak_rows;
  std::string tiebreak_table;
  bool tiebreak_ok = true;
  std::vector<std::string> decode_rows;
  std::string decode_table;
  bool decode_ok = true;
  std::vector<std::string> text_rows;
  std::string text_table;
  bool text_ok = true;
  for (const Corpus& c : corpora) {
    const auto input = random_cube(kBits, c.x_density, 7);
    const double chars =
        static_cast<double>((input.size() + kConfig.char_bits - 1) / kConfig.char_bits);
    const double legacy = reference_chars_per_sec(input, chars);
    const double indexed = encode_chars_per_sec(input, chars);
    const double speedup = legacy > 0 ? indexed / legacy : 0.0;
    const double gain = pinned ? indexed / c.baseline_indexed : 0.0;
    if (pinned) {
      std::printf("%-14s %16.0f %16.0f %8.2fx %11.2fx\n", c.name, legacy,
                  indexed, speedup, gain);
    } else {
      std::printf("%-14s %16.0f %16.0f %8.2fx %12s\n", c.name, legacy, indexed,
                  speedup, "n/a");
    }
    char gain_field[96];
    if (pinned) {
      std::snprintf(gain_field, sizeof gain_field,
                    "\"baseline_indexed_chars_per_sec\": %.0f, "
                    "\"gain_vs_baseline\": %.3f",
                    c.baseline_indexed, gain);
    } else {
      std::snprintf(gain_field, sizeof gain_field,
                    "\"baseline_indexed_chars_per_sec\": null, "
                    "\"gain_vs_baseline\": null");
    }
    char entry[640];
    std::snprintf(entry, sizeof entry,
                  "%s    {\"corpus\": \"%s\", \"x_density\": %.2f, "
                  "\"input_bits\": %zu, \"legacy_chars_per_sec\": %.0f, "
                  "\"indexed_chars_per_sec\": %.0f, \"speedup\": %.3f, %s}",
                  first ? "" : ",\n", c.name, c.x_density, kBits, legacy,
                  indexed, speedup, gain_field);
    json += entry;
    first = false;

    // The encoder under every tie-break policy, each checked against the
    // reference walk.
    for (std::size_t p = 0; p < std::size(kPolicies); ++p) {
      const lzw::Tiebreak tb = kPolicies[p];
      const bool identical = matches_reference(input, tb);
      const double rate = encode_chars_per_sec(input, chars, tb);
      tiebreak_ok = tiebreak_ok && identical;
      tiebreak_rows.push_back(bench_row(c, "policy", engine::tiebreak_name(tb), kBits,
                                        rate, "identical_to_legacy", identical, pinned,
                                        c.baseline_tiebreak[p], tiebreak_table));
    }

    // Decode paths: the container decoder over the packed stream, the cycle
    // model over the same encoder result, and the v3 record path over the
    // corpus cut into 4096-trit LZW records, one dictionary per record.
    const lzw::EncodeResult encoded = lzw::Encoder(kConfig).encode(input);
    const lzw::Decoder decoder(kConfig);
    const auto decode = [&] {
      bits::BitReader reader(encoded.stream);
      return decoder.try_decode_stream(reader, encoded.code_count, encoded.original_bits);
    };
    const hw::DecompressorModel model(hw::HwConfig{.lzw = kConfig, .clock_ratio = 10});
    const auto decoded = decode();
    const auto modeled = model.try_run(encoded);
    const bool decoder_covers = decoded.ok() && input.covered_by(decoded.value().bits);
    const bool model_covers = modeled.ok() && input.covered_by(modeled.value().scan_bits);
    const double decoder_rate =
        chars_per_sec(chars, [&] { benchmark::DoNotOptimize(decode()); });
    const double model_rate =
        chars_per_sec(chars, [&] { benchmark::DoNotOptimize(model.try_run(encoded)); });
    const codec::EncodedChunks chunked =
        codec::encode_chunks(input, codec::SelectOptions{.lzw = kConfig, .chunk_trits = 4096})
            .value_or_throw();
    const auto decode_records = [&] {
      return codec::decode_records(chunked.records, chunked.original_bits);
    };
    const auto records = decode_records();
    const bool records_cover = records.ok() && input.covered_by(records.value());
    const double records_rate =
        chars_per_sec(chars, [&] { benchmark::DoNotOptimize(decode_records()); });
    decode_ok = decode_ok && decoder_covers && model_covers && records_cover;
    decode_rows.push_back(bench_row(c, "path", "decoder", kBits, decoder_rate, "covers_input",
                                    decoder_covers, pinned, c.baseline_decoder,
                                    decode_table));
    decode_rows.push_back(bench_row(c, "path", "model", kBits, model_rate, "covers_input",
                                    model_covers, pinned, c.baseline_model, decode_table));
    decode_rows.push_back(bench_row(c, "path", "records", kBits, records_rate, "covers_input",
                                    records_cover, pinned, c.baseline_records, decode_table));

    // .tests text codec: one character per trit, so the rate is text
    // bytes (= trits) per second.
    const std::string text = input.to_string();
    const bool round_trips = bits::TritVector::from_string(text) == input;
    const double text_chars = static_cast<double>(text.size());
    const double parse_rate = chars_per_sec(
        text_chars, [&] { benchmark::DoNotOptimize(bits::TritVector::from_string(text)); });
    const double format_rate =
        chars_per_sec(text_chars, [&] { benchmark::DoNotOptimize(input.to_string()); });
    text_ok = text_ok && round_trips;
    text_rows.push_back(bench_row(c, "path", "parse", kBits, parse_rate, "round_trips",
                                  round_trips, pinned, c.baseline_parse, text_table));
    text_rows.push_back(bench_row(c, "path", "format", kBits, format_rate, "round_trips",
                                  round_trips, pinned, c.baseline_format, text_table));

    // The .tests reader: a multi-line text of kReaderWidth-trit cubes (the
    // corpus cut to whole cubes) to one scan stream. The rate counts cube
    // characters, one per trit.
    const scan::TestSet cubes = as_cubes(input, kReaderWidth);
    const std::string tests_text = scan::format_tests(cubes);
    const bits::TritVector expected = cubes.serialize();
    const scan::TestStream read = scan::read_test_stream(tests_text);
    const bool reader_round_trips = read.stream == expected && read.width == kReaderWidth &&
                                    read.patterns == cubes.cubes.size();
    const double reader_rate = chars_per_sec(static_cast<double>(expected.size()), [&] {
      benchmark::DoNotOptimize(scan::read_test_stream(tests_text));
    });
    text_ok = text_ok && reader_round_trips;
    text_rows.push_back(bench_row(c, "path", "reader", expected.size(), reader_rate,
                                  "round_trips", reader_round_trips, pinned,
                                  c.baseline_reader, text_table));
  }
  // Per-class rows: every policy on a corpus 80% of whose characters are
  // all-X, partly specified or fully specified, with the share of
  // characters encoded after the dictionary fills.
  const ClassCorpus class_corpora[] = {
      {"allx_0.8", CharClass::AllX,
       {54133555.0, 28957588.0, 50101946.0, 28868338.0, 24809747.0}},
      {"partial_0.8", CharClass::Partial,
       {35064625.0, 26966219.0, 33816639.0, 29723523.0, 25188417.0}},
      {"full_0.8", CharClass::Full,
       {38108289.0, 35129776.0, 36259907.0, 33825177.0, 33426871.0}}};
  std::vector<std::string> class_rows;
  std::string class_table;
  bool class_ok = true;
  for (const ClassCorpus& c : class_corpora) {
    const auto input = class_cube(kBits, c.dominant, 0.8, 11);
    const double chars =
        static_cast<double>((input.size() + kConfig.char_bits - 1) / kConfig.char_bits);
    for (std::size_t p = 0; p < std::size(kPolicies); ++p) {
      const lzw::Tiebreak tb = kPolicies[p];
      const bool identical = matches_reference(input, tb);
      const double rate = encode_chars_per_sec(input, chars, tb);
      const double share = post_fill_share(input, tb);
      const double baseline = c.baseline_policy[p];
      class_ok = class_ok && identical;
      char line[160];
      std::snprintf(line, sizeof line, "%-14s %-12s %16.0f %9s %9.3f %10.2fx\n", c.name,
                    engine::tiebreak_name(tb), rate, identical ? "yes" : "NO", share,
                    pinned ? rate / baseline : 0.0);
      class_table += line;
      char row[512];
      std::snprintf(row, sizeof row,
                    "    {\"corpus\": \"%s\", \"policy\": \"%s\", \"x_density\": %.2f, "
                    "\"input_bits\": %zu, \"chars_per_sec\": %.0f, "
                    "\"identical_to_legacy\": %s, \"post_fill_share\": %.3f, %s}",
                    c.name, engine::tiebreak_name(tb), input.x_density(), kBits, rate,
                    identical ? "true" : "false", share,
                    gain_json(pinned, rate, baseline).c_str());
      class_rows.push_back(row);
    }
  }

  json += "\n  ],\n  \"tiebreak\": [\n" + json_rows(tiebreak_rows) +
          "  ],\n  \"decode\": [\n" + json_rows(decode_rows) + "  ],\n  \"text\": [\n" +
          json_rows(text_rows) + "  ],\n  \"char_class\": [\n" + json_rows(class_rows) +
          "  ]\n}\n";
  std::printf("\nEncode per tie-break policy (chars/sec, best of 3):\n");
  std::printf("%-14s %-12s %16s %9s %11s\n", "corpus", "policy", "chars/sec", "= ref",
              "vs parent");
  std::printf("%s", tiebreak_table.c_str());
  std::printf("\nEncode per policy by dominant character class (chars/sec, best of 3):\n");
  std::printf("%-14s %-12s %16s %9s %9s %11s\n", "corpus", "policy", "chars/sec", "= ref",
              "post-fill", "vs parent");
  std::printf("%s", class_table.c_str());
  std::printf("\nDecode paths (chars/sec, best of 3):\n");
  std::printf("%-14s %-12s %16s %9s %11s\n", "corpus", "path", "chars/sec", "covers",
              "vs parent");
  std::printf("%s", decode_table.c_str());
  std::printf("\n.tests text codec (text chars/sec, best of 3):\n");
  std::printf("%-14s %-12s %16s %9s %11s\n", "corpus", "path", "chars/sec", "round",
              "vs parent");
  std::printf("%s", text_table.c_str());

  const char* path = std::getenv("TDC_BENCH_JSON");
  const std::string out_path =
      path != nullptr && *path != '\0' ? path : "BENCH_micro_codec.json";
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "micro_codec: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json;
  std::printf("wrote %s\n", out_path.c_str());
  if (!tiebreak_ok || !class_ok) {
    std::fprintf(stderr, "micro_codec: a tie-break pick differs from the reference encoder\n");
    return 1;
  }
  if (!decode_ok) {
    std::fprintf(stderr, "micro_codec: a decode path missed a care bit of its input\n");
    return 1;
  }
  if (!text_ok) {
    std::fprintf(stderr,
                 "micro_codec: a text corpus does not survive format + parse or the reader\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_path_comparison();
}
