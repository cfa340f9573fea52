#ifndef TDC_ENGINE_ENGINE_H
#define TDC_ENGINE_ENGINE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "codec/select.h"
#include "core/error.h"
#include "core/thread_safety.h"
#include "engine/manifest.h"
#include "obs/metrics.h"

namespace tdc::engine {

/// Tuning knobs of a batch run.
struct EngineOptions {
  /// Worker threads; 0 = exp::ThreadPool::default_jobs() ($TDC_JOBS, else
  /// hardware concurrency). A batch never starts more threads than jobs.
  unsigned workers = 0;

  /// After the first job failure, cancel every job that has not started and
  /// every running job at its next stage boundary (failed/cancelled jobs
  /// still appear in the report).
  bool fail_fast = false;

  /// Run the verify stage (container read-back + decode + care-bit
  /// coverage). Disable only for throughput experiments.
  bool verify = true;

  /// Directory prepended to relative job output paths ("" = CWD).
  std::string output_dir = {};
};

/// Everything the batch knows about one finished job, in manifest order.
struct JobOutcome {
  std::string name;
  Status status;            ///< ok, or the stage's typed Error
  bool cancelled = false;   ///< skipped because of fail-fast

  std::uint64_t original_bits = 0;
  std::uint64_t compressed_bits = 0;
  std::uint64_t container_bytes = 0;
  double ratio_percent = 0.0;

  std::string config_summary;  ///< LzwConfig::describe() + tiebreak/xassign
  std::uint32_t container_version = 2;
  std::string output_path;  ///< resolved destination; empty if none
  std::string container;    ///< container bytes when no output_path was given

  // What the encode stage saw beyond the totals, for `tdc_cli compress`'s
  // line and --stats: an LZW job's code count and encoder telemetry, a
  // codec= job's per-chunk choices in stream order.
  std::uint64_t code_count = 0;
  lzw::EncoderTelemetry telemetry;
  std::vector<codec::ChunkChoice> choices;

  bool ok() const { return status.ok() && !cancelled; }
};

/// Runs `fn`, which returns a Status or a Result, and maps an exception it
/// throws to a typed Error: a TdcErrorBase keeps its Error,
/// std::invalid_argument is a ConfigMismatch, anything else an IoError.
/// Every job stage and every tdcd request body runs under it.
template <typename Fn>
auto guarded(Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const TdcErrorBase& e) {
    return e.error();
  } catch (const std::invalid_argument& e) {
    return Error{ErrorKind::ConfigMismatch, e.what()};
  } catch (const std::exception& e) {
    return Error{ErrorKind::IoError, e.what()};
  }
}

/// The committed batch: per-job outcomes in manifest order plus wall time.
/// report() is deliberately timing-free, so its bytes are identical for any
/// worker count — the determinism contract the golden test pins down.
struct BatchResult {
  std::vector<JobOutcome> jobs;
  double wall_seconds = 0.0;

  std::size_t ok_count() const;
  std::size_t failed_count() const;
  std::size_t cancelled_count() const;

  /// Deterministic summary table (exp::Table) — one row per job.
  std::string report() const;
};

/// Invoked once per job, in manifest order, right after the job commits —
/// the CLI's per-job progress line.
using CommitCallback = std::function<void(const JobOutcome&)>;

/// Batch compression engine.
///
/// Each manifest job runs start to finish on one thread of an
/// exp::ThreadPool — load (read or prepare the test set) → encode
/// (don't-care-aware LZW or per-chunk codec selection) → containerize
/// (TDCLZW1/2/3) → verify (read-back + decode + care-bit coverage) — the
/// same job path JobRunner runs. Jobs are independent, so a job needs no
/// other thread, and the pool keeps `workers` jobs running at once. The
/// calling thread commits finished jobs strictly in manifest order: output
/// files are written and the commit callback fires in the same sequence for
/// any worker count, and since every stage is deterministic per job, the
/// committed bytes are too.
///
/// Failures are isolated per job: a stage error (typed tdc::Error) marks
/// that job failed and it skips its remaining stages, while the rest of the
/// batch proceeds — unless fail-fast is on, which cancels every job that
/// has not started and every running job at its next stage boundary. Every
/// stage records counters (in/ok/fail/skip) and a latency histogram into
/// the metrics registry.
class Engine {
 public:
  /// `metrics` may be shared/external (benches); the engine owns a private
  /// registry when none is given.
  explicit Engine(EngineOptions options = {}, obs::MetricsRegistry* metrics = nullptr);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  obs::MetricsRegistry& metrics() { return *metrics_; }

  /// Runs the whole batch to completion. Reentrant per Engine instance is
  /// not supported; run one batch at a time.
  BatchResult run(const Manifest& manifest, const CommitCallback& on_commit = {});

 private:
  EngineOptions options_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;
};

/// Persistent job front end: the same load → encode → containerize →
/// verify job path as Engine::run, one call at a time on the calling
/// thread — the shape a request/response service needs. A job runs all its
/// stages on that thread, failures stay typed and per job, and the outcome
/// carries the container bytes in JobOutcome::container (runner jobs never
/// write output files).
///
/// Backpressure is explicit: at most `max_in_flight` calls may be admitted
/// (waiting to run or running) at once; past that a call is refused at once
/// (the caller maps this to a Busy rejection) instead of queueing
/// unboundedly. The "runner.in_flight" gauge is that occupancy, so its peak
/// never exceeds the cap. At most `workers` admitted calls run at once; the
/// others wait until one returns.
class JobRunner {
 public:
  struct Options {
    /// Calls whose bodies run at once; 0 = exp::ThreadPool::default_jobs().
    unsigned workers = 0;
    /// Cap on admitted calls before a call is refused; 0 = 2 * workers.
    std::size_t max_in_flight = 0;
    /// Run the verify stage (container read-back + decode + coverage).
    bool verify = true;
  };

  JobRunner() : JobRunner(Options(), nullptr) {}
  explicit JobRunner(Options options, obs::MetricsRegistry* metrics = nullptr);
  ~JobRunner();  ///< stop()s

  JobRunner(const JobRunner&) = delete;
  JobRunner& operator=(const JobRunner&) = delete;

  obs::MetricsRegistry& metrics() { return *metrics_; }

  /// Runs one compression job on the calling thread and returns its
  /// outcome, ok or failed. nullopt, with nothing run, when the runner is
  /// stopping or max_in_flight calls are already admitted (counted in
  /// "runner.busy_rejects").
  std::optional<JobOutcome> run(JobSpec spec);

  /// Runs `task` on the calling thread under the same caps and returns true
  /// once it has run; false when refused as run() is — how the service
  /// daemon runs its decode-side requests (decompress/verify/inspect).
  /// Must not throw.
  bool run_task(const std::function<void()>& task);

  /// Calls admitted and not yet returned (monitoring only).
  std::size_t in_flight() const;

  /// Refuses new calls and waits until every admitted call has returned.
  /// Idempotent.
  void stop();

 private:
  /// Admits one call, waits for a running slot and runs `body` on the
  /// calling thread; nullopt when the admission cap or stop() refuses it.
  template <typename R>
  std::optional<R> call(const std::function<R()>& body);
  /// Returns one running slot and one admission; stop() wakes when the last
  /// admission is back.
  void release();

  Options options_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;

  mutable core::Mutex mutex_;
  core::CondVar idle_;       ///< stop() waits here for in_flight_ == 0
  core::CondVar slot_free_;  ///< admitted calls wait here for running_ < workers
  std::size_t in_flight_ TDC_GUARDED_BY(mutex_) = 0;
  std::size_t running_ TDC_GUARDED_BY(mutex_) = 0;
  bool stopping_ TDC_GUARDED_BY(mutex_) = false;

  // Pre-resolved instruments; private impl type defined in engine.cpp.
  struct RunnerState;
  std::unique_ptr<RunnerState> state_;
};

}  // namespace tdc::engine

#endif  // TDC_ENGINE_ENGINE_H
