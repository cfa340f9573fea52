#ifndef TDC_ENGINE_ENGINE_H
#define TDC_ENGINE_ENGINE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/error.h"
#include "core/thread_safety.h"
#include "engine/manifest.h"
#include "engine/metrics.h"
#include "exp/bounded_queue.h"

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

  bool ok() const { return status.ok() && !cancelled; }
};

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
  explicit Engine(EngineOptions options = {}, MetricsRegistry* metrics = nullptr);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  MetricsRegistry& metrics() { return *metrics_; }

  /// Runs the whole batch to completion. Reentrant per Engine instance is
  /// not supported; run one batch at a time.
  BatchResult run(const Manifest& manifest, const CommitCallback& on_commit = {});

 private:
  EngineOptions options_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_;
};

/// Persistent job-submission front end: the same load → encode →
/// containerize → verify job path as Engine::run, staffed by a long-lived
/// worker pool fed one JobSpec at a time instead of a whole manifest — the
/// shape a request/response service needs. Each submitted job runs all its
/// stages on one worker, failures stay typed and per-job, and the finished
/// outcome (container bytes in JobOutcome::container — runner jobs never
/// write output files) is handed to the submitter's callback on the worker
/// thread.
///
/// Backpressure is explicit: at most `max_in_flight` jobs may be queued or
/// running; past that submit() refuses immediately (the caller maps this to
/// a Busy rejection) instead of buffering unboundedly. Submission flows
/// through a bounded MPMC queue whose contention counters are exposed live
/// via publish_queue_stats().
class JobRunner {
 public:
  struct Options {
    /// Worker threads; 0 = exp::ThreadPool::default_jobs().
    unsigned workers = 0;
    /// Cap on queued + running jobs before submit() refuses; 0 = 2 * workers.
    std::size_t max_in_flight = 0;
    /// Run the verify stage (container read-back + decode + coverage).
    bool verify = true;
  };

  /// Invoked on a worker thread once the job finishes (ok or failed). Must
  /// not throw; keep it cheap — the worker is busy until it returns.
  using DoneCallback = std::function<void(JobOutcome)>;

  JobRunner() : JobRunner(Options(), nullptr) {}
  explicit JobRunner(Options options, MetricsRegistry* metrics = nullptr);
  ~JobRunner();  ///< stop()s: drains queued jobs, joins the pool.

  JobRunner(const JobRunner&) = delete;
  JobRunner& operator=(const JobRunner&) = delete;

  MetricsRegistry& metrics() { return *metrics_; }

  /// Submits one compression job. Returns false without queueing anything
  /// when the runner is stopping or max_in_flight jobs are already queued or
  /// running (counted in "runner.busy_rejects").
  bool submit(JobSpec spec, DoneCallback done);

  /// Runs an arbitrary closure on the same pool, under the same in-flight
  /// cap — how the service daemon multiplexes its decode-side requests
  /// (decompress/verify/inspect) onto the engine workers. Must not throw.
  bool submit_task(std::function<void()> task);

  /// Jobs currently queued or running (monitoring only).
  std::size_t in_flight() const;

  /// Blocks until every queued/running job has completed.
  void drain();

  /// Publishes the submission queue's contention counters into the metrics
  /// registry as "queue.service.*" deltas — callable at any time, so a
  /// stats endpoint reports live numbers mid-flight.
  void publish_queue_stats();

  /// Snapshot of the submission queue's counters (tests, monitoring).
  exp::BoundedQueueStats queue_stats() const;

  /// Refuses new submissions, drains everything queued, joins the workers.
  /// Idempotent.
  void stop();

 private:
  struct Item;
  void worker_loop();
  /// Counts `item` in flight and queues it; false (nothing queued, nothing
  /// counted) when the runner is full or stopping.
  bool admit(std::unique_ptr<Item> item);
  /// Returns one admission: in-flight count and gauge drop, drain() wakes.
  void release();

  Options options_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_;

  std::unique_ptr<exp::BoundedQueue<std::unique_ptr<Item>>> queue_;
  std::vector<std::thread> workers_;

  mutable core::Mutex mutex_;
  core::CondVar idle_;
  std::size_t in_flight_ TDC_GUARDED_BY(mutex_) = 0;
  bool stopping_ TDC_GUARDED_BY(mutex_) = false;

  core::Mutex publish_mutex_;
  exp::BoundedQueueStats published_ TDC_GUARDED_BY(publish_mutex_);

  // Pre-resolved instruments; private impl type defined in engine.cpp.
  struct RunnerState;
  std::unique_ptr<RunnerState> state_;
};

}  // namespace tdc::engine

#endif  // TDC_ENGINE_ENGINE_H
