// perfbench_driver: runs one workload for a fixed time and writes the raw
// measurements (set-up times, per-op latencies, CPU and counter deltas,
// optional span trace) as one JSON document. perfbench/run.py builds this
// binary, runs it and turns the document into the printed metrics.
//
//   perfbench_driver --workload batch_suite --seed 1 --seconds 10 --trace 0
//                    --min-ops 100 --out result.json
//
// --min-ops extends the untraced phase past --seconds until that many ops
// have run (run.py derives it from the tail percentile it reports).
//
// The CWD must be an empty directory the run owns; input files, the daemon
// socket and the trace file are created there. $TDC_CACHE_DIR names the
// exp::prepare cache.

#include <malloc.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "bits/simd.h"
#include "common.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double ctx_switches = 0.0;
  double max_rss_kb = 0.0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return Usage{secs(ru.ru_utime), secs(ru.ru_stime),
               static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw),
               static_cast<double>(ru.ru_maxrss)};
}

/// Restarts this process's peak-RSS count (ru_maxrss), so that the peak
/// leaves out input generation: the first run in a checkout fills the
/// prepare cache in this process. The heap it freed goes back to the
/// kernel first, or it would stay resident and count. Best effort: where
/// the kernel refuses, the peak includes the inputs.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// One lane's ops in a phase.
struct Lane {
  double wall_s = 0.0;
  double trits = 0.0;
  std::vector<double> latency_ms;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
};

/// One measured stretch of closed-loop ops, possibly made of several
/// slices (see append()).
struct Phase {
  std::vector<Lane> lanes;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  Usage usage;  ///< deltas over the phase
  std::vector<std::string> errors;
};

/// Runs ops on every lane until `seconds` have passed and at least
/// `min_ops` ops completed (bounded at four times `seconds`). A lane stops
/// only between cycles, so every run measures the same work mix unless the
/// bound cut a cycle. Every op is one "bench.op" span, the root of its
/// trace tree.
Phase run_phase(Workload& w, double seconds, std::size_t min_ops) {
  const unsigned lanes = w.lanes();
  const std::size_t cycle_ops = w.cycle_ops();
  std::vector<Lane> out(lanes);
  std::atomic<std::size_t> done{0};
  const Usage u0 = usage_now();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  const Clock::time_point cap = start + 4 * (deadline - start);

  const auto lane_loop = [&](unsigned lane) {
    Lane& o = out[lane];
    const Clock::time_point lane_start = Clock::now();
    for (;;) {
      const Clock::time_point now = Clock::now();
      if (now >= cap || (now >= deadline && o.latency_ms.size() % cycle_ops == 0 &&
                         done.load(std::memory_order_relaxed) >= min_ops)) {
        break;
      }
      OpResult r;
      const Clock::time_point t0 = Clock::now();
      {
        tdc::obs::TraceSpan span("bench.op");
        try {
          r = w.op(lane);
        } catch (const std::exception& e) {
          r.ok = false;
          r.error = std::string("exception: ") + e.what();
        }
      }
      const Clock::time_point t1 = Clock::now();
      o.latency_ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
      o.trits += static_cast<double>(r.trits);
      if (!r.ok) {
        ++o.failed;
        if (o.errors.size() < 5) o.errors.push_back(r.error);
      }
      done.fetch_add(1, std::memory_order_relaxed);
    }
    o.wall_s = seconds_since(lane_start);
  };

  if (lanes == 1) {
    lane_loop(0);
  } else {
    std::vector<std::thread> threads;
    for (unsigned lane = 0; lane < lanes; ++lane) threads.emplace_back(lane_loop, lane);
    for (std::thread& t : threads) t.join();
  }

  Phase p;
  const Usage u1 = usage_now();
  p.usage = Usage{u1.user_s - u0.user_s, u1.sys_s - u0.sys_s,
                  u1.ctx_switches - u0.ctx_switches, u1.max_rss_kb};
  for (Lane& o : out) {
    p.ops += o.latency_ms.size();
    p.failed += o.failed;
    for (std::string& e : o.errors) p.errors.push_back(std::move(e));
    o.errors.clear();
  }
  p.lanes = std::move(out);
  return p;
}

template <typename T>
void append(std::vector<T>& to, const std::vector<T>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

/// Adds a slice to a phase: lane by lane, its latencies follow the earlier
/// slices' latencies, and its totals add up.
void append(Phase& p, const Phase& slice) {
  p.lanes.resize(slice.lanes.size());
  for (std::size_t i = 0; i < slice.lanes.size(); ++i) {
    Lane& to = p.lanes[i];
    const Lane& from = slice.lanes[i];
    to.wall_s += from.wall_s;
    to.trits += from.trits;
    append(to.latency_ms, from.latency_ms);
  }
  p.ops += slice.ops;
  p.failed += slice.failed;
  p.usage.user_s += slice.usage.user_s;
  p.usage.sys_s += slice.usage.sys_s;
  p.usage.ctx_switches += slice.usage.ctx_switches;
  append(p.errors, slice.errors);
}

/// a - b, key by key (keys of a).
Counters minus(const Counters& a, const Counters& b) {
  Counters d;
  for (const auto& [k, v] : a) d[k] = v - (b.count(k) ? b.at(k) : 0.0);
  return d;
}

// ---------------------------------------------------------------- JSON out

std::string jstr(const std::string& s) {
  std::string out = "\"";
  out += tdc::obs::json_escape(s);
  out += '"';
  return out;
}

std::string jnum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jnums(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) s += ',';
    s += jnum(v[i]);
  }
  return s + "]";
}

std::string jmap(const std::map<std::string, double>& m) {
  std::string s = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    s += (first ? "" : ", ") + jstr(k) + ": " + jnum(v);
    first = false;
  }
  return s + "}";
}

std::string lane_json(const Lane& l) {
  return "{\"wall_s\": " + jnum(l.wall_s) + ", \"trits\": " + jnum(l.trits) +
         ", \"latency_ms\": " + jnums(l.latency_ms) + "}";
}

std::string phase_json(const Phase& p) {
  std::string errors = "[";
  for (std::size_t i = 0; i < p.errors.size(); ++i) {
    errors += (i ? ", " : "") + jstr(p.errors[i]);
  }
  errors += "]";
  std::string lanes = "[";
  for (std::size_t i = 0; i < p.lanes.size(); ++i) {
    lanes += (i ? ",\n  " : "") + lane_json(p.lanes[i]);
  }
  lanes += "]";
  return "{\"ops\": " + jnum(static_cast<double>(p.ops)) +
         ", \"failed\": " + jnum(static_cast<double>(p.failed)) +
         ", \"user_s\": " + jnum(p.usage.user_s) +
         ", \"sys_s\": " + jnum(p.usage.sys_s) +
         ", \"ctx_switches\": " + jnum(p.usage.ctx_switches) + ", \"errors\": " + errors +
         ", \"lanes\": " + lanes + "}";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t min_ops = 0;  ///< ops the untraced phase must complete
  std::string out;
};

/// Slices of the untraced phase; set-up is timed kSetupsPerSlice times
/// before each and once at the end.
constexpr int kSlices = 12;
constexpr int kSetupsPerSlice = 2;

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") a.workload = v;
    else if (key == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (key == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (key == "--trace") a.trace = std::strcmp(v, "0") != 0;
    else if (key == "--min-ops") a.min_ops = std::strtoull(v, nullptr, 10);
    else if (key == "--out") a.out = v;
    else return false;
  }
  return (argc % 2) == 1 && !a.workload.empty() && !a.out.empty() && a.seconds > 0;
}

int run(const Args& args) {
  const std::string run_dir = std::filesystem::current_path().string();
  const Inputs inputs = make_inputs(args.seed);
  const WorkloadConfig config{args.seed, run_dir};
  std::unique_ptr<Workload> w;
  if (args.workload == "batch_suite") {
    w = make_batch_suite(inputs, config);
  } else if (args.workload == "daemon_roundtrip") {
    w = make_daemon_roundtrip(inputs, config);
  } else if (args.workload == "decode_images") {
    w = make_decode_images(inputs, config);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  reset_peak_rss();

  // Set-up: construction plus one warm-up pass. It is timed kSetupsPerSlice
  // times before every slice of the untraced phase (each after tearing down
  // the last) and once at the end, so the set-ups are spread over the whole
  // run: the host's
  // contention comes in stretches of a second or so, and set-ups done back
  // to back all land in the same stretch.
  std::vector<double> setup_s;
  const auto time_setup = [&] {
    const Clock::time_point t0 = Clock::now();
    w->setup();
    setup_s.push_back(seconds_since(t0));
  };

  // A traced run splits its time: an untraced half (the baseline for the
  // tracing overhead and the source of counter deltas), then a traced half.
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  // Counter deltas are taken within each slice, before the teardown that
  // discards the workload's program objects, and summed over the slices.
  const std::size_t slice_ops = (args.min_ops + kSlices - 1) / kSlices;
  Phase untraced;
  Counters untraced_counters;
  for (int slice = 0; slice < kSlices; ++slice) {
    for (int rep = 0; rep < kSetupsPerSlice; ++rep) {
      if (slice > 0 || rep > 0) w->teardown();
      time_setup();
    }
    const Counters before = w->counters();
    append(untraced, run_phase(*w, untraced_s / kSlices, slice_ops));
    for (const auto& [k, v] : minus(w->counters(), before)) untraced_counters[k] += v;
  }

  std::string traced_json = "null";
  Report report;
  if (args.trace) {
    const Counters c1 = w->counters();
    const std::string trace_path = run_dir + "/trace.json";
    tdc::obs::TraceRecorder::global().enable(trace_path);
    const Phase traced = run_phase(*w, args.seconds / 2, 0);
    if (!tdc::obs::TraceRecorder::global().flush()) return 1;
    for (const auto& [k, v] : minus(w->counters(), c1)) {
      if (k.rfind("work.", 0) == 0) report.work[k.substr(5)] = v;
    }
    traced_json = phase_json(traced);
    traced_json.insert(traced_json.size() - 1, ", \"trace_file\": " + jstr(trace_path));
  }
  w->report(report, untraced_counters, untraced.ops);
  w->teardown();
  time_setup();
  w->teardown();

  std::ofstream out(args.out);
  out << "{\"workload\": " << jstr(args.workload)
      << ",\n \"seed\": " << args.seed
      << ",\n \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"simd\": " << jstr(tdc::bits::simd::active_kernel())
      << ", \"build_type\": " << jstr(PERFBENCH_BUILD_TYPE) << "}"
      << ",\n \"input_digest\": " << jstr(hex64(inputs.digest))
      << ",\n \"setup_s\": " << jnums(setup_s)
      << ",\n \"peak_rss_kb\": " << jnum(usage_now().max_rss_kb)
      << ",\n \"container_bytes\": " << report.container_bytes
      << ",\n \"container_trits\": " << report.container_trits
      << ",\n \"layer\": " << jmap(report.layer)
      << ",\n \"work\": " << jmap(report.work)
      << ",\n \"untraced\": " << phase_json(untraced)
      << ",\n \"traced\": " << traced_json << "}\n";
  return out ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--min-ops <n>] --out <file>\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
