// Batch-engine scaling bench: a synthetic suite of independent compression
// jobs (random ternary cubes, paper-default LZW configuration across all
// five tiebreaks) runs through the engine at 1/2/4/8 worker threads, each
// job start to finish on one thread. Writes the trajectory to
// BENCH_engine_throughput.json (override with $TDC_BENCH_JSON).
//
// The suite is identical for every thread count (fixed seeds, inline
// inputs, verify stage on), so the speedup column isolates the
// orchestration: the same work, more lanes. One engine run takes 30-50 ms,
// so a single run per point does not reproduce: each point is kRuns timed
// runs after a warm-up, reported as the median wall time with its
// quartiles, and the speedup is the ratio of medians. Each point also
// records the median process CPU seconds of a run, which tells two causes
// of a flat curve apart: CPU near the 1-worker CPU with wall near the
// 1-worker wall means the threads never overlapped; CPU above it means the
// work itself grew.
#include <sys/resource.h>

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

std::shared_ptr<const bits::TritVector> synthetic_stream(std::uint64_t seed) {
  bits::Rng rng(seed);
  auto stream = std::make_shared<bits::TritVector>(kBitsPerJob);
  for (std::size_t i = 0; i < kBitsPerJob; ++i) {
    if (!rng.chance(kXDensity)) {
      stream->set(i, rng.bit() ? bits::Trit::One : bits::Trit::Zero);
    }
  }
  return stream;
}

engine::Manifest build_suite() {
  const lzw::Tiebreak tiebreaks[] = {
      lzw::Tiebreak::First, lzw::Tiebreak::LowestChar, lzw::Tiebreak::MostRecent,
      lzw::Tiebreak::MostChildren, lzw::Tiebreak::Lookahead};
  engine::Manifest manifest;
  for (std::size_t i = 0; i < kJobs; ++i) {
    engine::JobSpec spec;
    spec.name = "synth" + std::to_string(i);
    spec.inline_stream = synthetic_stream(0xE11 + i);
    spec.config = lzw::LzwConfig{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};
    spec.tiebreak = tiebreaks[i % std::size(tiebreaks)];
    spec.container.version = i % 2 == 0 ? 2u : 1u;
    manifest.jobs.push_back(std::move(spec));
  }
  return manifest;
}

constexpr std::size_t kRuns = 15;

struct Point {
  unsigned workers = 0;
  double wall_p25 = 0.0;
  double wall_median = 0.0;
  double wall_p75 = 0.0;
  double cpu_median = 0.0;  ///< process user + system seconds per run
  double jobs_per_sec = 0.0;
  double mb_per_sec = 0.0;
};

/// The q-quantile of sorted `v`, interpolated between neighbours.
double quantile(const std::vector<double>& v, double q) {
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// User + system CPU seconds this process has used so far.
double process_cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// One engine run on a fresh registry, so the metrics snapshot covers
/// exactly one run. Returns its wall seconds and adds its CPU seconds to
/// `cpu_seconds` when given.
double timed_run(const engine::Manifest& manifest, unsigned workers,
                 std::string* metrics_json, double* cpu_seconds = nullptr) {
  engine::EngineOptions options;
  options.workers = workers;
  engine::Engine eng(options);
  const double cpu_before = process_cpu_seconds();
  const engine::BatchResult result = eng.run(manifest);
  if (cpu_seconds != nullptr) *cpu_seconds = process_cpu_seconds() - cpu_before;
  if (result.failed_count() != 0) {
    std::fprintf(stderr, "engine_throughput: %zu jobs failed\n",
                 result.failed_count());
    std::exit(1);
  }
  if (metrics_json != nullptr) *metrics_json = eng.metrics().to_json();
  return result.wall_seconds;
}

/// kRuns timed runs at `workers` threads after one warm-up run.
Point measure(const engine::Manifest& manifest, unsigned workers, std::uint64_t total_bits,
              std::string* metrics_json) {
  timed_run(manifest, workers, nullptr);
  std::vector<double> walls;
  std::vector<double> cpus;
  for (std::size_t r = 0; r < kRuns; ++r) {
    double cpu = 0.0;
    // The last run's registry (counters + latency histograms with
    // p50/p95/p99) is embedded in the JSON so the perf trajectory captures
    // the latency distributions, not just jobs/sec.
    walls.push_back(timed_run(manifest, workers, r + 1 == kRuns ? metrics_json : nullptr,
                              &cpu));
    cpus.push_back(cpu);
  }
  std::sort(walls.begin(), walls.end());
  std::sort(cpus.begin(), cpus.end());
  Point p;
  p.workers = workers;
  p.wall_p25 = quantile(walls, 0.25);
  p.wall_median = quantile(walls, 0.5);
  p.wall_p75 = quantile(walls, 0.75);
  p.cpu_median = quantile(cpus, 0.5);
  p.jobs_per_sec = static_cast<double>(kJobs) / p.wall_median;
  p.mb_per_sec = static_cast<double>(total_bits) / 8.0 / 1e6 / p.wall_median;
  return p;
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
  std::string metrics_json;
  for (const unsigned workers : {1u, 2u, 4u, 8u}) {
    points.push_back(measure(manifest, workers, total_bits, &metrics_json));
  }
  const double base_wall = points.front().wall_median;

  tdc::exp::Table table({"threads", "wall p50 (s)", "wall p25..p75 (s)", "CPU p50 (s)",
                         "jobs/sec", "MB/sec", "speedup"});
  std::string json = "{\n  \"bench\": \"engine_throughput\",\n  \"jobs\": " +
                     std::to_string(kJobs) + ",\n  \"bits_per_job\": " +
                     std::to_string(kBitsPerJob) + ",\n  \"cpus\": " +
                     std::to_string(cpus) + ",\n  \"runs_per_point\": " +
                     std::to_string(kRuns) + ",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    const double speedup = p.wall_median > 0 ? base_wall / p.wall_median : 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.4f", p.wall_median);
    std::string wall = buf;
    std::snprintf(buf, sizeof buf, "%.4f..%.4f", p.wall_p25, p.wall_p75);
    std::string iqr = buf;
    std::snprintf(buf, sizeof buf, "%.4f", p.cpu_median);
    std::string cpu = buf;
    std::snprintf(buf, sizeof buf, "%.1f", p.jobs_per_sec);
    std::string jps = buf;
    std::snprintf(buf, sizeof buf, "%.2f", p.mb_per_sec);
    std::string mbps = buf;
    std::snprintf(buf, sizeof buf, "%.2fx", speedup);
    table.add_row({std::to_string(p.workers), wall, iqr, cpu, jps, mbps, buf});
    char entry[384];
    std::snprintf(entry, sizeof entry,
                  "%s    {\"workers\": %u, \"wall_seconds_p25\": %.4f, "
                  "\"wall_seconds_median\": %.4f, \"wall_seconds_p75\": %.4f, "
                  "\"cpu_seconds_median\": %.4f, \"jobs_per_sec\": %.2f, "
                  "\"mb_per_sec\": %.3f, \"speedup_vs_1\": %.3f}",
                  i == 0 ? "" : ",\n", p.workers, p.wall_p25, p.wall_median, p.wall_p75,
                  p.cpu_median, p.jobs_per_sec, p.mb_per_sec, speedup);
    json += entry;
  }
  json += "\n  ],\n  \"metrics\": ";
  while (!metrics_json.empty() && metrics_json.back() == '\n') metrics_json.pop_back();
  json += metrics_json;
  json += "\n}\n";
  std::printf("%s\n", table.render().c_str());
  return tdc::exp::write_bench_json("engine_throughput", json) ? 0 : 1;
}
