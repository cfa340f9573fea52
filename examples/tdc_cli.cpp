// Command-line front end — the "compression tool" box of the paper's
// Fig. 1 as a downstream user would run it:
//
//   tdc_cli gen <circuit> <out.tests>            synthesize + ATPG a suite
//                                                circuit into a cube file
//   tdc_cli compress <in.tests>... <out|--out-dir D>  [--dict N] [--char C]
//                                                [--entry E] [--variable]
//                                                [--v1] [--chunk-bytes N]
//                                                [--jobs N] (multi-input)
//   tdc_cli decompress <in.tdclzw> <out.tests>   expand to full vectors
//   tdc_cli inspect <file>                       describe either format
//                                                (alias: info)
//   tdc_cli verify <in.tdclzw>...                full integrity + decode
//                                                check; nonzero on damage;
//                                                [--jobs N] in parallel
//   tdc_cli batch <manifest>                     independent jobs, each run
//                                                whole on one of N threads
//                                                [--jobs N] [--fail-fast]
//                                                [--out-dir D] [--no-verify]
//                                                [--metrics out.json]
//   tdc_cli stats <input> [--out F]              telemetry JSON for a
//                                                .tests (encode+decode) or
//                                                .tdclzw (decode) stream;
//                                                netlist structural report
//                                                for .bench / .v
//   tdc_cli convert <in> <out>                   .bench <-> .v
//   tdc_cli wave <in.tdclzw> <out.vcd> [k]       GTKWave dump of the
//                                                decompressor running the
//                                                image at clock ratio k
//   tdc_cli serve <socket>                       tdcd daemon: framed
//                                                compress / decompress /
//                                                inspect / verify / stats
//                                                requests over a unix
//                                                socket, multiplexed onto
//                                                the engine worker pool;
//                                                SIGINT/SIGTERM drain and
//                                                exit 0
//   tdc_cli client <socket> <op> [...]           talk to a running daemon
//                                                with the same ops (plus
//                                                ping and stats)
//
// Every subcommand additionally accepts `--trace <file>` (or $TDC_TRACE):
// the whole invocation is recorded as Chrome trace_event JSON, viewable in
// Perfetto / chrome://tracing.
//
// The .tests format is the plain-text cube format of scan/testset_io.h;
// .tdclzw is the binary compressed container of lzw/stream_io.h (TDCLZW2
// by default, TDCLZW1 with --v1). Flags share one parser (exp/args.h).
#include <algorithm>
#include <array>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "codec/select.h"
#include "engine/engine.h"
#include "engine/manifest.h"
#include "engine/metrics.h"
#include "exp/args.h"
#include "exp/flow.h"
#include "exp/thread_pool.h"
#include "hw/decompressor_rtl.h"
#include "lzw/stream_io.h"
#include "lzw/verify.h"
#include "netlist/bench_io.h"
#include "netlist/stats.h"
#include "netlist/verilog_io.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"
#include "obs/trace.h"
#include "scan/testset_io.h"
#include "service/client.h"
#include "service/server.h"

namespace {

using namespace tdc;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  tdc_cli gen <circuit> <out.tests>\n"
               "  tdc_cli compress <in.tests> <out.tdclzw> [--dict N] [--char C]"
               " [--entry E]\n"
               "              [--variable] [--v1] [--chunk-bytes N]"
               " [--stats <out.json>]\n"
               "              [--codec <name|auto|race>] [--chunk-trits N]"
               " (multi-codec TDCLZW2 v3)\n"
               "  tdc_cli compress <in.tests>... --out-dir <dir> [--jobs N] [...]\n"
               "  tdc_cli decompress <in.tdclzw> <out.tests>\n"
               "  tdc_cli inspect <file>        (alias: info)\n"
               "  tdc_cli verify <in.tdclzw>... [--jobs N]\n"
               "  tdc_cli batch <manifest> [--jobs N] [--fail-fast] [--no-verify]\n"
               "              [--out-dir <dir>] [--metrics <out.json>]\n"
               "  tdc_cli stats <in.tests|in.tdclzw|netlist.bench|netlist.v>"
               " [--out <f>]\n"
               "              [--dict N] [--char C] [--entry E] [--variable]\n"
               "  tdc_cli stats <socket> --openmetrics [--follow <sec>]"
               " [--samples N]\n"
               "  tdc_cli convert <in.bench|in.v> <out.bench|out.v>\n"
               "  tdc_cli wave <in.tdclzw> <out.vcd> [clock_ratio]\n"
               "  tdc_cli serve <socket> [--jobs N] [--max-in-flight N]\n"
               "              [--max-connections N] [--no-verify]"
               " [--io-timeout-ms N]\n"
               "              [--log-level <debug|info|warn|error|off>]"
               " [--log-rate N]\n"
               "              [--metrics-log <file>] [--metrics-interval-ms N]\n"
               "  tdc_cli client <socket> ping\n"
               "  tdc_cli client <socket> compress <in.tests> <out.tdclzw>"
               " [--dict N]\n"
               "              [--char C] [--entry E] [--variable] [--v1]"
               " [--chunk-bytes N]\n"
               "              [--codec <name|auto|race>] [--chunk-trits N]\n"
               "  tdc_cli client <socket> decompress <in.tdclzw> <out.tests>\n"
               "  tdc_cli client <socket> verify <in.tdclzw>\n"
               "  tdc_cli client <socket> inspect <file>\n"
               "  tdc_cli client <socket> stats [--out <f>] [--openmetrics]\n"
               "              client flags: [--connect-wait-ms N]"
               " [--io-timeout-ms N] [--trace-id <id>]\n"
               "global: --trace <file> (or $TDC_TRACE) records a Chrome trace\n");
  return 2;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

netlist::Netlist load_netlist(const std::string& path) {
  if (ends_with(path, ".v")) return netlist::parse_verilog_file(path);
  return netlist::parse_bench_file(path);
}

/// Rejects leftover flags, then checks the positional count.
bool accept(exp::Args& args, std::size_t min_pos, std::size_t max_pos,
            std::vector<std::string>* pos) {
  if (!args.unknown().empty()) {
    std::fprintf(stderr, "unknown flag: %s\n", args.unknown().c_str());
    return false;
  }
  *pos = args.positional();
  return pos->size() >= min_pos && pos->size() <= max_pos;
}

std::string container_line(const lzw::ContainerInfo& c) {
  char buf[160];
  if (c.version >= 3) {
    std::snprintf(buf, sizeof buf,
                  "container: TDCLZW2 v3 multi-codec (%llu B header + %llu B "
                  "payload, header+payload+record CRC32, %u records)",
                  static_cast<unsigned long long>(c.header_bytes),
                  static_cast<unsigned long long>(c.payload_bytes),
                  c.chunk_count);
  } else if (!c.crc_protected()) {
    std::snprintf(buf, sizeof buf,
                  "container: TDCLZW1 legacy (%llu B header + %llu B payload, "
                  "no integrity protection)",
                  static_cast<unsigned long long>(c.header_bytes),
                  static_cast<unsigned long long>(c.payload_bytes));
  } else if (c.chunk_count == 0) {
    std::snprintf(buf, sizeof buf,
                  "container: TDCLZW2 (%llu B header + %llu B payload, "
                  "header+payload CRC32, unchunked)",
                  static_cast<unsigned long long>(c.header_bytes),
                  static_cast<unsigned long long>(c.payload_bytes));
  } else {
    std::snprintf(buf, sizeof buf,
                  "container: TDCLZW2 (%llu B header + %llu B payload, "
                  "header+payload CRC32, %u chunks x %u B)",
                  static_cast<unsigned long long>(c.header_bytes),
                  static_cast<unsigned long long>(c.payload_bytes),
                  c.chunk_count, c.chunk_bytes);
  }
  return buf;
}

int cmd_wave(exp::Args& args) {
  std::vector<std::string> pos;
  if (!accept(args, 2, 3, &pos)) return usage();
  const lzw::CompressedImage image = lzw::read_image_file(pos[0]);
  const std::uint32_t k =
      pos.size() == 3 ? static_cast<std::uint32_t>(std::stoul(pos[2])) : 10;

  // Rebuild an EncodeResult view of the image for the RTL model.
  lzw::EncodeResult encoded;
  encoded.config = image.config;
  encoded.original_bits = image.original_bits;
  const auto decoded = image.decode();  // validates the stream
  encoded.stream = image.stream;
  // The RTL model reads codes from the stream; it only needs the count.
  encoded.codes.resize(image.code_count);

  std::ofstream out(pos[1]);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", pos[1].c_str());
    return 1;
  }
  hw::VcdWriter vcd(out, "lzw_decompressor");
  const hw::DecompressorRtl rtl(hw::HwConfig{.lzw = image.config, .clock_ratio = k});
  const auto run = rtl.run(encoded, &vcd);
  std::printf("%s: %llu internal cycles at %ux -> %s (%llu scan bits)\n",
              pos[0].c_str(), static_cast<unsigned long long>(run.internal_cycles),
              k, pos[1].c_str(),
              static_cast<unsigned long long>(decoded.bits.size()));
  return 0;
}

/// Deterministic per-stream telemetry JSON: identity + ratio breakdown up
/// front, then the encoder/decoder instrument sections. No timestamps, no
/// environment — byte-identical for the same input and flags on every run.
std::string stream_stats_json(const std::string& input, const char* source,
                              const lzw::LzwConfig& config,
                              std::uint64_t original_bits,
                              std::uint64_t compressed_bits,
                              std::uint64_t code_count,
                              const lzw::ContainerInfo* container,
                              const lzw::EncoderTelemetry* encoder,
                              const lzw::DecoderTelemetry* decoder) {
  const double ratio =
      original_bits == 0
          ? 0.0
          : (1.0 - static_cast<double>(compressed_bits) /
                       static_cast<double>(original_bits)) *
                100.0;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\n"
                "  \"input\": \"%s\",\n"
                "  \"source\": \"%s\",\n"
                "  \"config\": \"%s%s\",\n"
                "  \"original_bits\": %llu,\n"
                "  \"compressed_bits\": %llu,\n"
                "  \"codes\": %llu,\n"
                "  \"ratio_percent\": %.3f",
                obs::json_escape(input).c_str(), source,
                obs::json_escape(config.describe()).c_str(),
                config.variable_width ? " variable-width" : "",
                static_cast<unsigned long long>(original_bits),
                static_cast<unsigned long long>(compressed_bits),
                static_cast<unsigned long long>(code_count), ratio);
  std::string json = buf;
  if (container != nullptr) {
    std::snprintf(buf, sizeof buf,
                  ",\n  \"container\": {\"version\": %u, \"header_bytes\": %llu,"
                  " \"payload_bytes\": %llu, \"chunk_bytes\": %u,"
                  " \"chunk_count\": %u}",
                  container->version,
                  static_cast<unsigned long long>(container->header_bytes),
                  static_cast<unsigned long long>(container->payload_bytes),
                  container->chunk_bytes, container->chunk_count);
    json += buf;
  }
  if (encoder != nullptr) json += ",\n  \"encoder\": " + encoder->to_json();
  if (decoder != nullptr) json += ",\n  \"decoder\": " + decoder->to_json();
  json += "\n}\n";
  return json;
}

std::string multicodec_stats_json(const std::string& input,
                                  const std::string& mode,
                                  const lzw::LzwConfig& config,
                                  const codec::EncodedChunks& chunks);

/// Writes `text` to `--out <file>` when given, stdout otherwise.
int emit_text(const std::optional<std::string>& out_path, const std::string& text) {
  if (!out_path) {
    std::printf("%s", text.c_str());
    return 0;
  }
  std::ofstream out(*out_path);
  if (!(out << text)) {
    std::fprintf(stderr, "cannot write %s\n", out_path->c_str());
    return 1;
  }
  return 0;
}

/// Sums the per-op request counters out of one OpenMetrics scrape —
/// `tdc_serve_<op>_requests_total N` lines — so --follow can show a live
/// serve-wide request rate without a second wire format.
std::uint64_t sum_request_totals(const std::string& exposition) {
  std::uint64_t total = 0;
  std::istringstream lines(exposition);
  std::string line;
  const std::string prefix = "tdc_serve_";
  const std::string marker = "_requests_total ";
  while (std::getline(lines, line)) {
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    const std::size_t at = line.find(marker);
    if (at == std::string::npos) continue;
    total += std::strtoull(line.c_str() + at + marker.size(), nullptr, 10);
  }
  return total;
}

/// Scrapes the daemon's `metrics` op and prints the OpenMetrics payload.
/// With follow_sec > 0, repeats every follow_sec seconds (samples == 0 means
/// forever) and appends a `# serve.requests …/s` comment line computed from
/// an obs::RateWindow over the scraped request counters.
int scrape_openmetrics(const std::string& socket_path, double follow_sec,
                       std::uint64_t samples, int connect_wait_ms,
                       int io_timeout_ms) {
  service::ClientOptions options;
  options.socket_path = socket_path;
  options.connect_wait_ms = connect_wait_ms;
  options.io_timeout_ms = io_timeout_ms;
  Result<service::Client> client = service::Client::connect(options);
  if (!client.ok()) {
    std::fprintf(stderr, "%s: %s\n", socket_path.c_str(),
                 client.error().describe().c_str());
    return 1;
  }
  obs::RateWindow rate;
  const auto epoch = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; samples == 0 || i < samples; ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          static_cast<std::int64_t>(follow_sec * 1000.0)));
    }
    Result<service::Frame> resp = client.value().call("metrics");
    if (!resp.ok()) {
      std::fprintf(stderr, "%s: %s\n", socket_path.c_str(),
                   resp.error().describe().c_str());
      return 1;
    }
    std::fputs(resp.value().payload.c_str(), stdout);
    if (follow_sec > 0) {
      const auto now_ms = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - epoch)
              .count());
      rate.sample(now_ms, sum_request_totals(resp.value().payload));
      std::printf("# serve.requests %.1f/s over %zu samples\n",
                  rate.per_second(), rate.size());
    }
    std::fflush(stdout);
    if (follow_sec <= 0) break;  // single shot even if --samples says more
  }
  return 0;
}

int cmd_stats(exp::Args& args) {
  // --openmetrics turns the positional into a daemon socket: scrape the
  // live registry instead of analyzing a file.
  if (args.flag("--openmetrics")) {
    const std::optional<std::string> follow = args.value("--follow");
    const double follow_sec =
        follow ? std::strtod(follow->c_str(), nullptr) : 0.0;
    const std::uint64_t samples = args.u32("--samples", follow ? 0 : 1);
    const int connect_wait_ms =
        static_cast<int>(args.u32("--connect-wait-ms", 5000));
    const int io_timeout_ms =
        static_cast<int>(args.u32("--io-timeout-ms", 60000));
    std::vector<std::string> pos;
    if (!accept(args, 1, 1, &pos)) return usage();
    if (follow && follow_sec <= 0.0) {
      std::fprintf(stderr, "bad --follow interval: %s\n", follow->c_str());
      return usage();
    }
    return scrape_openmetrics(pos[0], follow_sec, samples, connect_wait_ms,
                              io_timeout_ms);
  }

  lzw::LzwConfig config;
  config.variable_width = args.flag("--variable");
  config.dict_size = args.u32("--dict", config.dict_size);
  config.char_bits = args.u32("--char", config.char_bits);
  config.entry_bits = args.u32("--entry", config.entry_bits);
  const std::optional<std::string> out_path = args.value("--out");
  std::vector<std::string> pos;
  if (!accept(args, 1, 1, &pos)) return usage();
  const std::string& path = pos[0];

  // Netlists keep the historical structural report.
  if (ends_with(path, ".bench") || ends_with(path, ".v")) {
    const netlist::Netlist nl = load_netlist(path);
    std::printf("%s", netlist::analyze(nl).report().c_str());
    return 0;
  }

  // A compressed container: decode it and report the expansion-side numbers.
  if (Result<lzw::CompressedImage> image = lzw::try_read_image_file(path);
      image.ok()) {
    const lzw::CompressedImage& img = image.value();
    if (img.multi_codec()) {
      // v3: validate through the registry, report the per-record codecs.
      const Result<bits::TritVector> decoded = codec::decode_image(img);
      if (!decoded.ok()) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     decoded.error().describe().c_str());
        return 1;
      }
      codec::EncodedChunks chunks;
      chunks.original_bits = img.original_bits;
      for (const lzw::ChunkRecord& r : img.chunks) {
        const codec::Codec* c = codec::codec_for_id(r.codec_id);
        codec::ChunkChoice choice;
        choice.codec_id = r.codec_id;
        choice.codec = c != nullptr ? codec::to_string(c->id())
                                    : "id" + std::to_string(r.codec_id);
        choice.trits = r.original_trits;
        choice.payload_bytes = r.payload.size();
        chunks.payload_bytes += r.payload.size();
        chunks.choices.push_back(std::move(choice));
      }
      chunks.stats_bits = chunks.payload_bytes * 8;
      return emit_text(out_path,
                       multicodec_stats_json(path, "container", img.config, chunks));
    }
    const Result<lzw::DecodeResult> decoded = img.try_decode();
    if (!decoded.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   decoded.error().describe().c_str());
      return 1;
    }
    return emit_text(out_path,
                     stream_stats_json(path, "container", img.config,
                                       img.original_bits, img.stream.bit_count(),
                                       img.code_count, &img.container, nullptr,
                                       &decoded.value().telemetry));
  }

  // A raw test set: run the full encode + decode cycle and report both sides.
  config.validate();
  const scan::TestSet tests = scan::read_tests_file(path);
  const bits::TritVector stream = tests.serialize();
  const auto encoded = lzw::Encoder(config).encode(stream);
  const auto decoded =
      lzw::Decoder(config).decode(encoded.codes, encoded.original_bits);
  return emit_text(out_path,
                   stream_stats_json(path, "tests", config, encoded.original_bits,
                                     encoded.compressed_bits(),
                                     encoded.codes.size(), nullptr,
                                     &encoded.telemetry, &decoded.telemetry));
}

int cmd_convert(exp::Args& args) {
  std::vector<std::string> pos;
  if (!accept(args, 2, 2, &pos)) return usage();
  const netlist::Netlist nl = load_netlist(pos[0]);
  std::ofstream out(pos[1]);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", pos[1].c_str());
    return 1;
  }
  if (ends_with(pos[1], ".v")) {
    netlist::write_verilog(out, nl);
  } else {
    netlist::write_bench(out, nl);
  }
  std::printf("%s -> %s (%u nodes)\n", pos[0].c_str(), pos[1].c_str(),
              nl.gate_count());
  return 0;
}

int cmd_gen(exp::Args& args) {
  std::vector<std::string> pos;
  if (!accept(args, 2, 2, &pos)) return usage();
  const exp::PreparedCircuit pc = exp::prepare(pos[0]);
  scan::write_tests_file(pos[1], pc.tests);
  std::printf("%s: %llu patterns x %u bits (%.1f%% X), coverage %.2f%% -> %s\n",
              pos[0].c_str(),
              static_cast<unsigned long long>(pc.tests.pattern_count()),
              pc.tests.width, 100.0 * pc.tests.x_density(), pc.fault_coverage,
              pos[1].c_str());
  return 0;
}

/// One verified compress of `in` to `out`; returns the success line plus the
/// stream's telemetry JSON (for --stats), or throws. Shared by the
/// single-file and the parallel --out-dir paths.
struct CompressOutcome {
  std::string line;
  std::string stats_json;
};

/// "auto[lzw x2, bwt x1]" — the mode plus the winner histogram in chunk
/// order of first appearance.
std::string choices_summary(const std::string& mode,
                            const std::vector<codec::ChunkChoice>& choices) {
  std::vector<std::pair<std::string, std::size_t>> counts;
  for (const codec::ChunkChoice& c : choices) {
    bool found = false;
    for (auto& [name, n] : counts) {
      if (name == c.codec) { ++n; found = true; break; }
    }
    if (!found) counts.emplace_back(c.codec, 1);
  }
  std::string out = mode + "[";
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (i != 0) out += ", ";
    out += counts[i].first + " x" + std::to_string(counts[i].second);
  }
  return out + "]";
}

/// Deterministic per-codec accounting for the multi-codec --stats output:
/// chunk choices in order, then totals per codec — the one place compress
/// reports how many bytes each backend contributed.
std::string multicodec_stats_json(const std::string& input,
                                  const std::string& mode,
                                  const lzw::LzwConfig& config,
                                  const codec::EncodedChunks& chunks) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\n"
                "  \"input\": \"%s\",\n"
                "  \"source\": \"tests\",\n"
                "  \"codec_mode\": \"%s\",\n"
                "  \"config\": \"%s%s\",\n"
                "  \"original_bits\": %llu,\n"
                "  \"compressed_bits\": %llu,\n"
                "  \"payload_bytes\": %llu,\n"
                "  \"ratio_percent\": %.3f,\n",
                obs::json_escape(input).c_str(), obs::json_escape(mode).c_str(),
                obs::json_escape(config.describe()).c_str(),
                config.variable_width ? " variable-width" : "",
                static_cast<unsigned long long>(chunks.original_bits),
                static_cast<unsigned long long>(chunks.stats_bits),
                static_cast<unsigned long long>(chunks.payload_bytes),
                codec::ratio_percent(chunks.original_bits, chunks.stats_bits));
  std::string json = buf;
  json += "  \"chunks\": [";
  for (std::size_t i = 0; i < chunks.choices.size(); ++i) {
    const codec::ChunkChoice& c = chunks.choices[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n    {\"codec\": \"%s\", \"trits\": %llu,"
                  " \"stats_bits\": %llu, \"payload_bytes\": %llu}",
                  i == 0 ? "" : ",", c.codec.c_str(),
                  static_cast<unsigned long long>(c.trits),
                  static_cast<unsigned long long>(c.stats_bits),
                  static_cast<unsigned long long>(c.payload_bytes));
    json += buf;
  }
  json += "\n  ],\n  \"per_codec\": {";
  std::vector<std::pair<std::string, std::array<std::uint64_t, 4>>> totals;
  for (const codec::ChunkChoice& c : chunks.choices) {
    bool found = false;
    for (auto& [name, t] : totals) {
      if (name == c.codec) {
        t[0] += 1; t[1] += c.trits; t[2] += c.stats_bits; t[3] += c.payload_bytes;
        found = true;
        break;
      }
    }
    if (!found) {
      totals.emplace_back(c.codec,
                          std::array<std::uint64_t, 4>{1, c.trits, c.stats_bits,
                                                       c.payload_bytes});
    }
  }
  for (std::size_t i = 0; i < totals.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  "%s\n    \"%s\": {\"chunks\": %llu, \"original_trits\": %llu,"
                  " \"stats_bits\": %llu, \"payload_bytes\": %llu}",
                  i == 0 ? "" : ",", totals[i].first.c_str(),
                  static_cast<unsigned long long>(totals[i].second[0]),
                  static_cast<unsigned long long>(totals[i].second[1]),
                  static_cast<unsigned long long>(totals[i].second[2]),
                  static_cast<unsigned long long>(totals[i].second[3]));
    json += buf;
  }
  json += "\n  }\n}\n";
  return json;
}

CompressOutcome compress_one(const std::string& in, const std::string& out,
                             const lzw::LzwConfig& config,
                             const lzw::ContainerOptions& container,
                             const std::string& codec_mode,
                             std::uint32_t chunk_trits) {
  obs::TraceSpan span("cli.compress");
  const scan::TestSet tests = scan::read_tests_file(in);
  const bits::TritVector stream = tests.serialize();

  if (!codec_mode.empty()) {
    // Multi-codec path: per-chunk selection into a TDCLZW2 v3 container,
    // verified end to end through the registry before the file is written.
    codec::SelectOptions options =
        codec::parse_codec_mode(codec_mode).value_or_throw();
    options.lzw = config;
    if (chunk_trits != 0) options.chunk_trits = chunk_trits;
    obs::MetricsRegistry metrics;
    const codec::EncodedChunks chunks =
        codec::encode_chunks(stream, options, &metrics).value_or_throw();
    const bits::TritVector decoded =
        codec::decode_records(chunks.records, chunks.original_bits)
            .value_or_throw();
    if (!decoded.fully_specified() || !stream.covered_by(decoded)) {
      throw std::runtime_error(
          "internal verification failed: expansion does not cover the input");
    }
    lzw::write_image_v3_file(out, config, chunks.original_bits,
                             options.chunk_trits, chunks.records);
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "%s: %llu -> %llu bits (ratio %.2f%%, %s, codec %s, TDCLZW2 v3) -> %s",
        in.c_str(), static_cast<unsigned long long>(chunks.original_bits),
        static_cast<unsigned long long>(chunks.stats_bits),
        codec::ratio_percent(chunks.original_bits, chunks.stats_bits),
        config.describe().c_str(),
        choices_summary(codec_mode, chunks.choices).c_str(), out.c_str());
    CompressOutcome outcome;
    outcome.line = buf;
    outcome.stats_json = multicodec_stats_json(in, codec_mode, config, chunks);
    return outcome;
  }

  const auto encoded = lzw::Encoder(config).encode(stream);
  const auto report = lzw::verify_roundtrip(stream, encoded);
  if (!report.ok) {
    throw std::runtime_error("internal verification failed: " + report.error);
  }
  lzw::write_image_file(out, encoded, container);
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "%s: %llu -> %llu bits (ratio %.2f%%, %s, TDCLZW%u) -> %s",
                in.c_str(), static_cast<unsigned long long>(encoded.original_bits),
                static_cast<unsigned long long>(encoded.compressed_bits()),
                encoded.ratio_percent(), config.describe().c_str(),
                container.version, out.c_str());
  CompressOutcome outcome;
  outcome.line = buf;
  outcome.stats_json = stream_stats_json(in, "tests", config,
                                         encoded.original_bits,
                                         encoded.compressed_bits(),
                                         encoded.codes.size(), nullptr,
                                         &encoded.telemetry, nullptr);
  return outcome;
}

std::string basename_of(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

int cmd_compress(exp::Args& args) {
  lzw::LzwConfig config;
  config.variable_width = args.flag("--variable");
  config.dict_size = args.u32("--dict", config.dict_size);
  config.char_bits = args.u32("--char", config.char_bits);
  config.entry_bits = args.u32("--entry", config.entry_bits);
  lzw::ContainerOptions container;
  if (args.flag("--v1")) container.version = 1;
  container.chunk_bytes = args.u32("--chunk-bytes", container.chunk_bytes);
  const std::string codec_mode = args.value("--codec").value_or("");
  const std::uint32_t chunk_trits = args.u32("--chunk-trits", 0);
  const std::optional<std::string> out_dir = args.value("--out-dir");
  const std::optional<std::string> stats_path = args.value("--stats");
  const unsigned jobs = args.jobs();

  std::vector<std::string> pos;
  if (!accept(args, out_dir ? 1 : 2, out_dir ? 9999 : 2, &pos)) return usage();
  config.validate();
  if (!codec_mode.empty()) {
    if (const auto mode = codec::parse_codec_mode(codec_mode); !mode.ok()) {
      std::fprintf(stderr, "%s\n", mode.error().describe().c_str());
      return 2;
    }
    if (container.version == 1 ||
        container.chunk_bytes != lzw::ContainerOptions{}.chunk_bytes) {
      std::fprintf(stderr,
                   "--codec writes a TDCLZW2 v3 container; drop --v1/--chunk-bytes\n");
      return 2;
    }
  } else if (chunk_trits != 0) {
    std::fprintf(stderr, "--chunk-trits needs --codec\n");
    return 2;
  }

  // --stats: per-stream telemetry JSON, one object per input in argument
  // order — byte-identical for any --jobs count.
  const auto write_stats = [&](const std::vector<CompressOutcome>& outcomes) {
    if (!stats_path) return 0;
    std::string json;
    if (outcomes.size() == 1) {
      json = outcomes[0].stats_json;
    } else {
      json = "[\n";
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        json += outcomes[i].stats_json;
        if (i + 1 < outcomes.size()) {
          json.pop_back();  // swap the trailing newline for a separator
          json += ",\n";
        }
      }
      json += "]\n";
    }
    return emit_text(stats_path, json);
  };

  if (!out_dir) {
    const CompressOutcome outcome =
        compress_one(pos[0], pos[1], config, container, codec_mode, chunk_trits);
    std::printf("%s\n", outcome.line.c_str());
    return write_stats({outcome});
  }

  // --out-dir: every positional is an input; <dir>/<stem>.tdclzw each,
  // compressed across the pool, lines printed in input order.
  std::filesystem::create_directories(*out_dir);
  exp::ThreadPool pool(jobs);
  const auto outcomes =
      exp::parallel_map(pool, pos, [&](const std::string& in) {
        std::string stem = basename_of(in);
        if (const std::size_t dot = stem.rfind(".tests");
            dot != std::string::npos && dot == stem.size() - 6) {
          stem.resize(dot);
        }
        return compress_one(in, *out_dir + "/" + stem + ".tdclzw", config,
                            container, codec_mode, chunk_trits);
      });
  for (const CompressOutcome& o : outcomes) std::printf("%s\n", o.line.c_str());
  return write_stats(outcomes);
}

int cmd_decompress(exp::Args& args) {
  std::vector<std::string> pos;
  if (!accept(args, 2, 2, &pos)) return usage();
  Result<lzw::CompressedImage> image = lzw::try_read_image_file(pos[0]);
  if (!image.ok()) {
    std::fprintf(stderr, "%s: %s\n", pos[0].c_str(),
                 image.error().describe().c_str());
    return 1;
  }
  // decode_image handles every container version: v1/v2 through the LZW
  // image decoder, v3 through the per-chunk codec registry.
  const Result<bits::TritVector> decoded = codec::decode_image(image.value());
  if (!decoded.ok()) {
    std::fprintf(stderr, "%s: %s\n", pos[0].c_str(),
                 decoded.error().describe().c_str());
    return 1;
  }

  scan::TestSet out;
  out.circuit = "decompressed";
  // Without side information the stream is one long vector; emit it as a
  // single-pattern set (downstream tools re-split by their known width).
  out.width = static_cast<std::uint32_t>(decoded.value().size());
  out.cubes.push_back(decoded.value());
  scan::write_tests_file(pos[1], out);
  std::printf("%s: %llu %s -> %llu bits -> %s\n", pos[0].c_str(),
              static_cast<unsigned long long>(image.value().code_count),
              image.value().multi_codec() ? "records" : "codes",
              static_cast<unsigned long long>(decoded.value().size()),
              pos[1].c_str());
  return 0;
}

int cmd_inspect(exp::Args& args) {
  std::vector<std::string> pos;
  if (!accept(args, 1, 1, &pos)) return usage();
  const std::string& path = pos[0];
  if (Result<lzw::CompressedImage> image = lzw::try_read_image_file(path);
      image.ok()) {
    const lzw::CompressedImage& img = image.value();
    std::printf("%s: TDCLZW%u image, %s%s, %llu codes, %llu original bits,"
                " %llu payload bits (ratio %.2f%%)\n",
                path.c_str(), img.container.version,
                img.config.describe().c_str(),
                img.config.variable_width ? " variable-width" : "",
                static_cast<unsigned long long>(img.code_count),
                static_cast<unsigned long long>(img.original_bits),
                static_cast<unsigned long long>(img.stream.bit_count()),
                (1.0 - static_cast<double>(img.stream.bit_count()) /
                           static_cast<double>(img.original_bits)) *
                    100.0);
    std::printf("%s\n", container_line(img.container).c_str());
    if (img.multi_codec()) {
      // Per-record codec names plus the payload-size distribution.
      obs::LocalHistogram record_sizes;
      std::vector<std::pair<std::string, std::size_t>> counts;
      for (const lzw::ChunkRecord& r : img.chunks) {
        record_sizes.record(r.payload.size());
        const codec::Codec* c = codec::codec_for_id(r.codec_id);
        const std::string name = c != nullptr
                                     ? codec::to_string(c->id())
                                     : "id" + std::to_string(r.codec_id);
        bool found = false;
        for (auto& [n, count] : counts) {
          if (n == name) { ++count; found = true; break; }
        }
        if (!found) counts.emplace_back(name, 1);
      }
      std::string per_chunk;
      for (std::size_t i = 0; i < counts.size(); ++i) {
        if (i != 0) per_chunk += ", ";
        per_chunk += counts[i].first + " x" + std::to_string(counts[i].second);
      }
      std::printf("chunk codecs: %s\n", per_chunk.c_str());
      std::printf("record payload bytes: %s\n",
                  obs::snapshot_summary_line(record_sizes.snapshot()).c_str());
    } else if (img.container.chunk_count > 0) {
      // Per-chunk payload-size distribution through the shared obs
      // histogram — every chunk is chunk_bytes except the final remainder.
      obs::LocalHistogram chunk_sizes;
      const lzw::ContainerInfo& c = img.container;
      for (std::uint32_t i = 0; i < c.chunk_count; ++i) {
        const std::uint64_t size =
            i + 1 < c.chunk_count
                ? c.chunk_bytes
                : c.payload_bytes -
                      static_cast<std::uint64_t>(c.chunk_count - 1) * c.chunk_bytes;
        chunk_sizes.record(size);
      }
      std::printf("chunk payload bytes: %s\n",
                  obs::snapshot_summary_line(chunk_sizes.snapshot()).c_str());
    }
    return 0;
  }
  // Not a readable container: try the .tests format.
  const scan::TestSet tests = scan::read_tests_file(path);
  std::printf("%s: test set '%s', %llu patterns x %u bits, %.1f%% don't-cares\n",
              path.c_str(), tests.circuit.c_str(),
              static_cast<unsigned long long>(tests.pattern_count()), tests.width,
              100.0 * tests.x_density());
  return 0;
}

/// Full integrity + decode check of one container; the returned line goes
/// to stdout on success, stderr on failure.
struct VerifyOutcome {
  bool ok = false;
  std::string line;
};

VerifyOutcome verify_one(const std::string& path) {
  VerifyOutcome out;
  Result<lzw::CompressedImage> image = lzw::try_read_image_file(path);
  if (!image.ok()) {
    out.line = path + ": FAILED " + image.error().describe();
    return out;
  }
  const Result<bits::TritVector> decoded = codec::decode_image(image.value());
  if (!decoded.ok()) {
    out.line = path + ": FAILED " + decoded.error().describe();
    return out;
  }
  const lzw::ContainerInfo& c = image.value().container;
  char buf[384];
  std::snprintf(buf, sizeof buf,
                "%s: OK — %s; %llu %s decode to %llu scan bits%s",
                path.c_str(), container_line(c).c_str(),
                static_cast<unsigned long long>(image.value().code_count),
                image.value().multi_codec() ? "records" : "codes",
                static_cast<unsigned long long>(decoded.value().size()),
                c.crc_protected() ? ""
                                  : " (legacy format: decode check only, no CRC)");
  out.ok = true;
  out.line = buf;
  return out;
}

int cmd_verify(exp::Args& args) {
  const unsigned jobs = args.jobs();
  std::vector<std::string> pos;
  if (!accept(args, 1, 9999, &pos)) return usage();

  // Several files verify in parallel (--jobs N / $TDC_JOBS); output stays
  // in argument order either way.
  exp::ThreadPool pool(std::min<unsigned>(jobs, static_cast<unsigned>(pos.size())));
  const auto outcomes = exp::parallel_map(pool, pos, verify_one);
  int failures = 0;
  for (const VerifyOutcome& out : outcomes) {
    if (out.ok) {
      std::printf("%s\n", out.line.c_str());
    } else {
      std::fprintf(stderr, "%s\n", out.line.c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

int cmd_batch(exp::Args& args) {
  engine::EngineOptions options;
  options.workers = args.jobs();
  options.fail_fast = args.flag("--fail-fast");
  options.verify = !args.flag("--no-verify");
  if (const auto dir = args.value("--out-dir")) options.output_dir = *dir;
  const std::optional<std::string> metrics_path = args.value("--metrics");

  std::vector<std::string> pos;
  if (!accept(args, 1, 1, &pos)) return usage();

  Result<engine::Manifest> manifest = engine::load_manifest(pos[0]);
  if (!manifest.ok()) {
    std::fprintf(stderr, "%s: %s\n", pos[0].c_str(),
                 manifest.error().describe().c_str());
    return 1;
  }

  engine::Engine eng(options);
  const engine::BatchResult result =
      eng.run(manifest.value(), [](const engine::JobOutcome& job) {
        if (job.cancelled) {
          std::printf("  %-16s cancelled\n", job.name.c_str());
        } else if (!job.status.ok()) {
          std::printf("  %-16s FAILED %s\n", job.name.c_str(),
                      job.status.error().describe().c_str());
        } else {
          std::printf("  %-16s %llu -> %llu bits (%.2f%%)%s%s\n",
                      job.name.c_str(),
                      static_cast<unsigned long long>(job.original_bits),
                      static_cast<unsigned long long>(job.compressed_bits),
                      job.ratio_percent,
                      job.output_path.empty() ? "" : " -> ",
                      job.output_path.c_str());
        }
      });

  std::printf("\n%s\n", result.report().c_str());
  std::printf("batch: %zu jobs, %zu ok, %zu failed, %zu cancelled in %.2fs "
              "(%.1f jobs/sec)\n",
              result.jobs.size(), result.ok_count(), result.failed_count(),
              result.cancelled_count(), result.wall_seconds,
              result.wall_seconds > 0
                  ? static_cast<double>(result.jobs.size()) / result.wall_seconds
                  : 0.0);
  if (metrics_path) {
    std::ofstream out(*metrics_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", metrics_path->c_str());
      return 1;
    }
    out << eng.metrics().to_json();
    std::printf("metrics -> %s\n", metrics_path->c_str());
  }
  return result.failed_count() == 0 ? 0 : 1;
}

// --- tdcd daemon (serve) and its command-line client -----------------------

/// The signal handler's route to the server: request_stop() is
/// async-signal-safe (one self-pipe write), so SIGINT/SIGTERM translate
/// directly into a graceful drain.
service::Server* g_server = nullptr;

extern "C" void handle_stop_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

int cmd_serve(exp::Args& args) {
  service::ServerOptions options;
  options.workers = args.jobs();
  options.max_in_flight = args.u32("--max-in-flight", 0);
  options.max_connections = args.u32("--max-connections", 64);
  options.verify = !args.flag("--no-verify");
  options.io_timeout_ms =
      static_cast<int>(args.u32("--io-timeout-ms", 30000));
  options.log_sink = [](const std::string& line) {
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);  // scripts wait for the "server.listen" line
  };
  const std::string level_name = args.value("--log-level").value_or("info");
  options.log_level = obs::parse_log_level(level_name);
  if (options.log_level == obs::LogLevel::Off && level_name != "off") {
    std::fprintf(stderr, "bad --log-level: %s\n", level_name.c_str());
    return usage();
  }
  options.log_rate_per_sec =
      static_cast<double>(args.u32("--log-rate", 0));
  options.metrics_log_path = args.value("--metrics-log").value_or("");
  options.metrics_interval_ms =
      static_cast<int>(args.u32("--metrics-interval-ms", 1000));
  std::vector<std::string> pos;
  if (!accept(args, 1, 1, &pos)) return usage();
  options.socket_path = pos[0];

  service::Server server(std::move(options));
  if (Status s = server.start(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.error().describe().c_str());
    return 1;
  }
  g_server = &server;
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  const int rc = server.wait();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_server = nullptr;
  return rc;
}

std::optional<std::string> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

bool write_file_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  return static_cast<bool>(out.write(bytes.data(),
                                     static_cast<std::streamsize>(bytes.size())));
}

int cmd_client(exp::Args& args) {
  service::ClientOptions options;
  options.connect_wait_ms =
      static_cast<int>(args.u32("--connect-wait-ms", 5000));
  options.io_timeout_ms = static_cast<int>(args.u32("--io-timeout-ms", 60000));
  // Every request carries a trace id so daemon-side spans can be joined
  // back to this invocation; --trace-id overrides the pid-derived default.
  options.trace_id =
      args.value("--trace-id").value_or("cli-" + std::to_string(::getpid()));

  // compress knobs, forwarded as frame params (only when given, so the
  // daemon's defaults — identical to the offline tool's — apply otherwise).
  std::vector<std::pair<std::string, std::string>> params;
  for (const char* flag : {"--dict", "--char", "--entry"}) {
    if (const auto v = args.value(flag)) {
      params.emplace_back(flag + 2, *v);  // strip "--"
    }
  }
  if (const auto v = args.value("--chunk-trits")) {
    params.emplace_back("chunk_trits", *v);
  }
  if (const auto v = args.value("--chunk-bytes")) params.emplace_back("chunk", *v);
  if (const auto v = args.value("--codec")) params.emplace_back("codec", *v);
  if (args.flag("--variable")) params.emplace_back("variable", "1");
  if (args.flag("--v1")) params.emplace_back("container", "1");
  const bool openmetrics = args.flag("--openmetrics");
  const std::optional<std::string> out_path = args.value("--out");

  std::vector<std::string> pos;
  if (!accept(args, 2, 4, &pos)) return usage();
  const std::string& socket_path = pos[0];
  const std::string& op = pos[1];

  options.socket_path = socket_path;
  Result<service::Client> client = service::Client::connect(options);
  if (!client.ok()) {
    std::fprintf(stderr, "%s: %s\n", socket_path.c_str(),
                 client.error().describe().c_str());
    return 1;
  }

  const auto fail = [](const std::string& what, const Error& error) {
    std::fprintf(stderr, "%s: %s\n", what.c_str(), error.describe().c_str());
    return 1;
  };

  if (op == "ping") {
    if (pos.size() != 2) return usage();
    Result<service::Frame> resp = client.value().call("ping", {}, "tdc");
    if (!resp.ok()) return fail(socket_path, resp.error());
    std::printf("%s: pong (%zu B echoed)\n", socket_path.c_str(),
                resp.value().payload.size());
    return 0;
  }

  if (op == "compress" || op == "decompress") {
    if (pos.size() != 4) return usage();
    const std::optional<std::string> input = read_file_bytes(pos[2]);
    if (!input) {
      std::fprintf(stderr, "cannot read %s\n", pos[2].c_str());
      return 1;
    }
    Result<service::Frame> resp =
        client.value().call(op, std::move(params), std::move(*input));
    if (!resp.ok()) return fail(pos[2], resp.error());
    if (!write_file_bytes(pos[3], resp.value().payload)) {
      std::fprintf(stderr, "cannot write %s\n", pos[3].c_str());
      return 1;
    }
    const service::Frame& r = resp.value();
    if (op == "compress") {
      std::printf("%s: %s -> %s bits (ratio %s%%, TDCLZW v%s) -> %s\n",
                  pos[2].c_str(), r.param("original_bits").c_str(),
                  r.param("compressed_bits").c_str(), r.param("ratio").c_str(),
                  r.param("version").c_str(), pos[3].c_str());
    } else {
      std::printf("%s: %s codes -> %s bits -> %s\n", pos[2].c_str(),
                  r.param("codes").c_str(), r.param("bits").c_str(),
                  pos[3].c_str());
    }
    return 0;
  }

  if (op == "verify" || op == "inspect") {
    if (pos.size() != 3) return usage();
    const std::optional<std::string> input = read_file_bytes(pos[2]);
    if (!input) {
      std::fprintf(stderr, "cannot read %s\n", pos[2].c_str());
      return 1;
    }
    Result<service::Frame> resp = client.value().call(op, {}, std::move(*input));
    if (!resp.ok()) return fail(pos[2], resp.error());
    std::printf(op == "verify" ? "%s: %s\n" : "%s: %s", pos[2].c_str(),
                resp.value().payload.c_str());
    return 0;
  }

  if (op == "stats") {
    if (pos.size() != 2) return usage();
    // --openmetrics swaps the registry-JSON payload for the OpenMetrics
    // text exposition (the daemon's `metrics` op).
    Result<service::Frame> resp =
        client.value().call(openmetrics ? "metrics" : "stats");
    if (!resp.ok()) return fail(socket_path, resp.error());
    return emit_text(out_path, resp.value().payload);
  }

  std::fprintf(stderr, "unknown client op: %s\n", op.c_str());
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  exp::Args args(argc - 2, argv + 2);

  // --trace <file> / $TDC_TRACE: record every span of this invocation and
  // flush them as Chrome trace_event JSON (Perfetto / chrome://tracing) on
  // the way out — including the error paths.
  std::optional<std::string> trace_path = args.value("--trace");
  if (!trace_path) {
    if (const char* env = std::getenv("TDC_TRACE"); env != nullptr && *env != '\0') {
      trace_path = env;
    }
  }
  if (trace_path) obs::TraceRecorder::global().enable(*trace_path);

  int rc = 2;
  try {
    if (cmd == "gen") rc = cmd_gen(args);
    else if (cmd == "compress") rc = cmd_compress(args);
    else if (cmd == "decompress") rc = cmd_decompress(args);
    else if (cmd == "inspect" || cmd == "info") rc = cmd_inspect(args);
    else if (cmd == "verify") rc = cmd_verify(args);
    else if (cmd == "batch") rc = cmd_batch(args);
    else if (cmd == "stats") rc = cmd_stats(args);
    else if (cmd == "convert") rc = cmd_convert(args);
    else if (cmd == "wave") rc = cmd_wave(args);
    else if (cmd == "serve") rc = cmd_serve(args);
    else if (cmd == "client") rc = cmd_client(args);
    else rc = usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }
  if (trace_path && !obs::TraceRecorder::global().flush() && rc == 0) rc = 1;
  return rc;
}
