// Batch-engine scaling bench: a synthetic suite of independent compression
// jobs (random ternary cubes, paper-default LZW configuration across all
// five tiebreaks) runs through the engine at 1/2/4/8 worker threads, each
// job start to finish on one thread. Reports jobs/sec and MB/sec per point
// and writes the trajectory to BENCH_engine_throughput.json (override with
// $TDC_BENCH_JSON).
//
// The suite is identical for every thread count (fixed seeds, inline
// inputs, verify stage on), so the speedup column isolates the
// orchestration: the same work, more lanes.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bits/rng.h"
#include "engine/engine.h"
#include "engine/manifest.h"
#include "exp/bench_json.h"
#include "exp/flow.h"
#include "exp/table.h"

namespace {

using namespace tdc;

constexpr std::size_t kJobs = 32;
constexpr std::size_t kBitsPerJob = 1 << 18;
constexpr double kXDensity = 0.9;

std::shared_ptr<const scan::TestSet> synthetic_tests(std::uint64_t seed) {
  bits::Rng rng(seed);
  auto tests = std::make_shared<scan::TestSet>();
  tests->circuit = "synthetic";
  tests->width = kBitsPerJob;
  bits::TritVector cube(kBitsPerJob);
  for (std::size_t i = 0; i < kBitsPerJob; ++i) {
    if (!rng.chance(kXDensity)) {
      cube.set(i, rng.bit() ? bits::Trit::One : bits::Trit::Zero);
    }
  }
  tests->cubes.push_back(std::move(cube));
  return tests;
}

engine::Manifest build_suite() {
  const lzw::Tiebreak tiebreaks[] = {
      lzw::Tiebreak::First, lzw::Tiebreak::LowestChar, lzw::Tiebreak::MostRecent,
      lzw::Tiebreak::MostChildren, lzw::Tiebreak::Lookahead};
  engine::Manifest manifest;
  for (std::size_t i = 0; i < kJobs; ++i) {
    engine::JobSpec spec;
    spec.name = "synth" + std::to_string(i);
    spec.inline_tests = synthetic_tests(0xE11 + i);
    spec.config = lzw::LzwConfig{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};
    spec.tiebreak = tiebreaks[i % std::size(tiebreaks)];
    spec.container.version = i % 2 == 0 ? 2u : 1u;
    manifest.jobs.push_back(std::move(spec));
  }
  return manifest;
}

struct Point {
  unsigned workers = 0;
  double seconds = 0.0;
  double jobs_per_sec = 0.0;
  double mb_per_sec = 0.0;
};

/// One engine run on a fresh registry, so the metrics snapshot covers
/// exactly one run.
double timed_run(const engine::Manifest& manifest, unsigned workers,
                 std::string* metrics_json) {
  engine::EngineOptions options;
  options.workers = workers;
  engine::Engine eng(options);
  const engine::BatchResult result = eng.run(manifest);
  if (result.failed_count() != 0) {
    std::fprintf(stderr, "engine_throughput: %zu jobs failed\n",
                 result.failed_count());
    std::exit(1);
  }
  if (metrics_json != nullptr) *metrics_json = eng.metrics().to_json();
  return result.wall_seconds;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned jobs_arg = tdc::exp::sweep_jobs(argc, argv);
  (void)jobs_arg;  // the sweep is over thread counts; flag kept for symmetry

  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  std::printf("Engine throughput — %zu synthetic jobs x %zu bits, X=%.1f "
              "(%u CPUs)\n\n",
              kJobs, kBitsPerJob, kXDensity, cpus);
  if (cpus < 4) {
    std::printf("note: speedup is bounded by the %u available core%s — run on\n"
                "a multicore host to see the scaling curve.\n\n",
                cpus, cpus == 1 ? "" : "s");
  }

  const engine::Manifest manifest = build_suite();
  const std::uint64_t total_bits = kJobs * kBitsPerJob;

  std::vector<Point> points;
  double base_jobs_per_sec = 0.0;
  std::string metrics_json;

  for (const unsigned workers : {1u, 2u, 4u, 8u}) {
    // Warm-up pass amortizes first-touch costs; the measured pass follows.
    timed_run(manifest, workers, nullptr);
    Point p;
    p.workers = workers;
    // The last point's registry (counters + latency histograms with
    // p50/p95/p99) is embedded in the JSON so the perf trajectory captures
    // the latency distributions, not just jobs/sec.
    p.seconds = timed_run(manifest, workers, &metrics_json);
    p.jobs_per_sec = static_cast<double>(kJobs) / p.seconds;
    p.mb_per_sec = static_cast<double>(total_bits) / 8.0 / 1e6 / p.seconds;
    if (workers == 1) base_jobs_per_sec = p.jobs_per_sec;
    points.push_back(p);
  }

  tdc::exp::Table table({"threads", "wall (s)", "jobs/sec", "MB/sec", "speedup"});
  std::string json = "{\n  \"bench\": \"engine_throughput\",\n  \"jobs\": " +
                     std::to_string(kJobs) + ",\n  \"bits_per_job\": " +
                     std::to_string(kBitsPerJob) + ",\n  \"cpus\": " +
                     std::to_string(cpus) + ",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    const double speedup =
        base_jobs_per_sec > 0 ? p.jobs_per_sec / base_jobs_per_sec : 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", p.seconds);
    std::string secs = buf;
    std::snprintf(buf, sizeof buf, "%.1f", p.jobs_per_sec);
    std::string jps = buf;
    std::snprintf(buf, sizeof buf, "%.2f", p.mb_per_sec);
    std::string mbps = buf;
    std::snprintf(buf, sizeof buf, "%.2fx", speedup);
    table.add_row({std::to_string(p.workers), secs, jps, mbps, buf});
    char entry[256];
    std::snprintf(entry, sizeof entry,
                  "%s    {\"workers\": %u, \"wall_seconds\": %.4f, "
                  "\"jobs_per_sec\": %.2f, \"mb_per_sec\": %.3f, "
                  "\"speedup_vs_1\": %.3f}",
                  i == 0 ? "" : ",\n", p.workers, p.seconds, p.jobs_per_sec,
                  p.mb_per_sec, speedup);
    json += entry;
  }
  json += "\n  ],\n  \"metrics\": ";
  while (!metrics_json.empty() && metrics_json.back() == '\n') metrics_json.pop_back();
  json += metrics_json;
  json += "\n}\n";
  std::printf("%s\n", table.render().c_str());
  return tdc::exp::write_bench_json("engine_throughput", json) ? 0 : 1;
}
