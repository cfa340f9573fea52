#ifndef TDC_OBS_METRICS_H
#define TDC_OBS_METRICS_H

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/thread_safety.h"

namespace tdc::obs {

/// Monotonic event counter (thread-safe, relaxed — counters are statistics,
/// not synchronization).
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  // tdc-sync: pure statistic — relaxed add/load; no reader infers other
  // state from the count, so no ordering is needed.
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level with a high-watermark: in-flight calls, live
/// connections, RSS. set()/add() fold the peak as a side effect,
/// so "how bad did it get" survives the level dropping back to zero. Signed,
/// because add(-1) on connection close is the natural call shape; relaxed
/// atomics — like Counter, gauges are statistics, not synchronization.
class Gauge {
 public:
  void set(std::int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    fold_peak(v);
  }
  void add(std::int64_t delta) {
    const std::int64_t now =
        value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    fold_peak(now);
  }

  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  std::int64_t peak() const { return peak_.load(std::memory_order_relaxed); }

 private:
  void fold_peak(std::int64_t v) {
    std::int64_t seen = peak_.load(std::memory_order_relaxed);
    // Both the success and the failure order are relaxed: a failed CAS only
    // reloads `seen`, it publishes nothing.
    while (v > seen &&
           !peak_.compare_exchange_weak(seen, v, std::memory_order_relaxed,
                                        std::memory_order_relaxed)) {
    }
  }

  // tdc-sync: statistic like Counter — relaxed everywhere, no reader infers
  // other state from the level.
  std::atomic<std::int64_t> value_{0};
  // tdc-sync: relaxed CAS fold — the loop in fold_peak is monotone (peak
  // only grows), so racing folds converge to max regardless of order.
  std::atomic<std::int64_t> peak_{0};
};

/// Rolling per-second rate reconstructed from samples of one monotonic
/// counter: feed (timestamp, counter value) pairs and per_second() answers
/// over the retained window — how `stats --follow` turns two OpenMetrics
/// scrapes into a live requests/sec readout. Deterministic and clock-free:
/// the caller supplies every timestamp, so tests drive it with synthetic
/// millis. Single-threaded by design (a display loop owns it).
class RateWindow {
 public:
  explicit RateWindow(std::size_t capacity = 32)
      : capacity_(capacity == 0 ? 2 : capacity) {}

  /// Appends one observation of the counter. A value below the previous
  /// sample means the counter restarted (daemon bounce) — the window resets
  /// rather than reporting a huge negative rate.
  void sample(std::uint64_t at_millis, std::uint64_t value) {
    if (!points_.empty() && value < points_.back().value) points_.clear();
    points_.push_back({at_millis, value});
    if (points_.size() > capacity_) points_.erase(points_.begin());
  }

  /// Counter increase per second across the whole retained window; 0 with
  /// fewer than two samples or zero elapsed time.
  double per_second() const {
    if (points_.size() < 2) return 0.0;
    const Point& oldest = points_.front();
    const Point& newest = points_.back();
    if (newest.at_millis <= oldest.at_millis) return 0.0;
    return 1000.0 * static_cast<double>(newest.value - oldest.value) /
           static_cast<double>(newest.at_millis - oldest.at_millis);
  }

  std::size_t size() const { return points_.size(); }

 private:
  struct Point {
    std::uint64_t at_millis;
    std::uint64_t value;
  };
  std::size_t capacity_;
  std::vector<Point> points_;
};

/// Bucket count shared by every histogram: 48 log2 buckets cover ~3 days in
/// µs and ~256 TB in bytes.
inline constexpr std::size_t kHistogramBuckets = 48;

/// Bucket index for a sample: 0 holds value 0, bucket b holds [2^(b-1), 2^b),
/// the last bucket is a catch-all. Inline — called per histogram sample on
/// the codec hot path.
inline std::size_t bucket_of(std::uint64_t value) {
  if (value == 0) return 0;
  const std::size_t b = static_cast<std::size_t>(std::bit_width(value));
  return b < kHistogramBuckets ? b : kHistogramBuckets - 1;
}

/// Inclusive upper bound of bucket b (0 for b = 0, else 2^b - 1).
inline std::uint64_t bucket_upper(std::size_t b) {
  return b == 0 ? 0 : (1ull << b) - 1;
}

/// Accumulated state of a log2-bucketed histogram: bucket b counts samples
/// in [2^(b-1), 2^b). 48 buckets cover ~3 days in µs and ~256 TB in bytes.
/// Shared between the thread-safe Histogram and the unsynchronized
/// LocalHistogram so both report through the same snapshot shape.
struct HistogramSnapshot {
  static constexpr std::size_t kBuckets = kHistogramBuckets;

  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, kBuckets> buckets{};

  /// Unsynchronized accumulate — Histogram wraps this under its lock.
  /// Defined inline: the codec hot loop records through LocalHistogram on
  /// every emitted code, and an out-of-line call here is measurable in
  /// micro_codec.
  void add(std::uint64_t value) {
    // Snapshot.min defaults to 0 for the empty histogram, so the very first
    // sample must seed it unconditionally — otherwise a series whose
    // smallest value is nonzero would report min=0 forever (pinned by
    // HistogramFirstSampleSeedsMin in obs_test).
    if (count == 0 || value < min) min = value;
    if (value > max) max = value;
    ++count;
    sum += value;
    ++buckets[bucket_of(value)];
  }

  /// Accumulates `n` identical samples in O(1). The resulting snapshot is
  /// exactly what `n` individual add(value) calls would produce (all the
  /// accumulate operations commute), which lets a hot loop count repeats in
  /// a plain array and fold them in afterwards.
  void add_repeated(std::uint64_t value, std::uint64_t n) {
    if (n == 0) return;
    if (count == 0 || value < min) min = value;
    if (value > max) max = value;
    count += n;
    sum += value * n;
    buckets[bucket_of(value)] += n;
  }

  /// Merges another snapshot into this one (bucket-wise sum, min/max fold).
  void merge(const HistogramSnapshot& other);

  double mean() const { return count == 0 ? 0.0 : static_cast<double>(sum) / count; }

  /// Approximate quantile (q in [0, 1]) reconstructed from the log2 buckets:
  /// the sample rank is located in its bucket and interpolated linearly
  /// between the bucket bounds, clamped to the exact [min, max] envelope.
  /// 0 when empty. Deterministic — same samples, same answer.
  double percentile(double q) const;

  double p50() const { return percentile(0.50); }
  double p95() const { return percentile(0.95); }
  double p99() const { return percentile(0.99); }
};

/// Thread-safe log2-bucketed histogram; the engine records stage latencies
/// in microseconds and payload sizes in bytes through these.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = HistogramSnapshot::kBuckets;
  using Snapshot = HistogramSnapshot;

  void record(std::uint64_t value) {
    core::MutexLock lock(mutex_);
    data_.add(value);
  }

  /// Folds a whole pre-accumulated snapshot in under one lock acquisition —
  /// how a worker's LocalHistogram shard publishes at thread exit, replacing
  /// a lock round-trip per sample with one per worker.
  void merge(const Snapshot& other) {
    core::MutexLock lock(mutex_);
    data_.merge(other);
  }

  Snapshot snapshot() const {
    core::MutexLock lock(mutex_);
    return data_;
  }

 private:
  mutable core::Mutex mutex_;
  HistogramSnapshot data_ TDC_GUARDED_BY(mutex_);
};

/// Unsynchronized histogram for single-thread hot paths (codec telemetry):
/// record() is a handful of plain integer operations, no lock, no atomics.
/// Publish by value, or merge into a shared Histogram when the run ends.
class LocalHistogram {
 public:
  void record(std::uint64_t value) { data_.add(value); }
  void record_repeated(std::uint64_t value, std::uint64_t n) {
    data_.add_repeated(value, n);
  }
  const HistogramSnapshot& snapshot() const { return data_; }

 private:
  HistogramSnapshot data_;
};

/// Records the lifetime of the scope into a histogram as microseconds —
/// wrap one stage execution and the latency lands in `<stage>.micros`.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& histogram)
      : histogram_(histogram), start_(std::chrono::steady_clock::now()) {}

  ~ScopedTimer() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    histogram_.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count()));
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram& histogram_;
  std::chrono::steady_clock::time_point start_;
};

/// `{"count": …, "sum": …, "min": …, "max": …, "mean": …, "p50": …,
/// "p95": …, "p99": …}` — the summary fields of one snapshot, without the
/// bucket array. Deterministic; floats render with three decimals.
std::string snapshot_summary_json(const HistogramSnapshot& s);

/// One-line human-readable digest of a snapshot for CLI report surfaces:
/// `count=8 min=1024 p50=4096.0 p95=4096.0 p99=4096.0 max=4096 mean=3712.0`.
std::string snapshot_summary_line(const HistogramSnapshot& s);

/// Point-in-time copy of one gauge (value + high-watermark).
struct GaugeSnapshot {
  std::int64_t value = 0;
  std::int64_t peak = 0;
};

/// Consistent-enough copy of a whole registry: each instrument read
/// atomically, the instrument set under the registry lock. This is the
/// input shape shared by every exporter (to_json, openmetrics_render,
/// metrics_ndjson_line), so they can never disagree about what exists.
struct RegistrySnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, GaugeSnapshot> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// Named counters + gauges + histograms, created on first use and stable for
/// the registry's lifetime — the engine instruments every stage through one
/// of these, and benches read the same numbers the production path records.
///
/// counter()/gauge()/histogram() return references that stay valid until the
/// registry is destroyed, so hot paths resolve a name once and keep the
/// pointer. to_json() is a consistent-enough snapshot for reporting: each
/// instrument is read atomically, the set of instruments under a lock.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Copies every instrument (exporter input; see RegistrySnapshot).
  RegistrySnapshot snapshot() const;

  /// {"counters": {name: value, ...}, "gauges": {name: {value, peak}, ...},
  /// "histograms": {name: {count, sum, min, max, mean, p50, p95, p99,
  /// buckets: [[upper_bound, count], ...]}, ...}} — keys sorted (std::map),
  /// so the rendering is deterministic.
  std::string to_json() const;

 private:
  /// Guards the maps (the instrument *set*), not the instruments — those
  /// are internally synchronized and outlive any lookup.
  mutable core::Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ TDC_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ TDC_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      TDC_GUARDED_BY(mutex_);
};

/// Prefix-scoped view of a registry: MetricScope(reg, "serve.compress")
/// resolves counter("requests") to the registry's "serve.compress.requests".
/// Cheap to copy; instruments keep registry lifetime. The service daemon
/// gives every endpoint its own scope so per-op counters never collide and
/// a new endpoint never has to invent its own dotted-name discipline.
class MetricScope {
 public:
  MetricScope(MetricsRegistry& registry, std::string prefix)
      : registry_(&registry), prefix_(std::move(prefix)) {}

  Counter& counter(const std::string& name) const {
    return registry_->counter(qualified(name));
  }
  Gauge& gauge(const std::string& name) const {
    return registry_->gauge(qualified(name));
  }
  Histogram& histogram(const std::string& name) const {
    return registry_->histogram(qualified(name));
  }

  /// A nested scope: scoped("errors") under "serve" is "serve.errors.*".
  MetricScope scoped(const std::string& sub) const {
    return MetricScope(*registry_, qualified(sub));
  }

  const std::string& prefix() const { return prefix_; }
  MetricsRegistry& registry() const { return *registry_; }

 private:
  std::string qualified(const std::string& name) const {
    return prefix_.empty() ? name : prefix_ + "." + name;
  }

  MetricsRegistry* registry_;
  std::string prefix_;
};

}  // namespace tdc::obs

#endif  // TDC_OBS_METRICS_H
