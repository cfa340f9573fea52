#include "engine/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <sstream>

#include "codec/select.h"
#include "exp/flow.h"
#include "exp/table.h"
#include "exp/thread_pool.h"
#include "lzw/stream_io.h"
#include "lzw/verify.h"
#include "obs/trace.h"
#include "scan/testset_io.h"

namespace tdc::engine {

namespace {

/// One job in flight: the spec plus whatever earlier stages produced.
struct Job {
  const JobSpec* spec = nullptr;
  bits::TritVector stream;        // load
  lzw::EncodeResult encoded;      // encode, legacy whole-buffer LZW
  codec::EncodedChunks chunks;    // encode, codec= per-chunk selection
  std::string container;          // containerize
  JobOutcome outcome;
  bool failed = false;

  bool multi_codec() const { return !spec->codec.empty(); }
};

/// Pre-resolved instruments of one stage, so a job never touches the
/// registry's name map on the hot path.
struct StageMetrics {
  StageMetrics(MetricsRegistry& m, const std::string& stage)
      : in(&m.counter(stage + ".in")), ok(&m.counter(stage + ".ok")),
        fail(&m.counter(stage + ".fail")), skip(&m.counter(stage + ".skip")),
        micros(&m.histogram(stage + ".micros")) {}

  Counter* in;
  Counter* ok;
  Counter* fail;
  Counter* skip;
  Histogram* micros;
};

/// gen= inputs shared by several jobs are prepared exactly once; later
/// jobs block on the shared future (a failed prepare fails each of them).
struct GenMemo {
  core::Mutex mutex;
  std::map<std::string, std::shared_future<std::shared_ptr<const bits::TritVector>>>
      memo TDC_GUARDED_BY(mutex);
};

/// Everything the job path needs besides the job itself: the registry the
/// codec layers record into, the four stages' instruments plus the encode
/// bit totals, and the gen= memo. Engine::run builds one per batch,
/// JobRunner one for its lifetime, so both front ends record under the
/// same names.
struct JobContext {
  explicit JobContext(MetricsRegistry& m)
      : registry(m), load(m, "load"), encode(m, "encode"),
        container(m, "container"), verify(m, "verify"),
        bits_in(&m.counter("encode.bits_in")),
        bits_out(&m.counter("encode.bits_out")) {}

  MetricsRegistry& registry;
  StageMetrics load, encode, container, verify;
  Counter* bits_in;
  Counter* bits_out;
  GenMemo gen;
};

Error typed_error(ErrorKind kind, std::string message) {
  Error e;
  e.kind = kind;
  e.message = std::move(message);
  return e;
}

/// Runs a stage body with exception → typed-Error mapping: TdcErrorBase
/// keeps its typed error, std::invalid_argument means a configuration /
/// semantic problem, anything else an I/O-level failure.
template <typename Fn>
Status guarded(Fn&& fn) {
  try {
    return fn();
  } catch (const TdcErrorBase& e) {
    return e.error();
  } catch (const std::invalid_argument& e) {
    return typed_error(ErrorKind::ConfigMismatch, e.what());
  } catch (const std::exception& e) {
    return typed_error(ErrorKind::IoError, e.what());
  }
}

std::uint64_t micros_since(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

std::string resolve_output(const std::string& output_dir, const std::string& path) {
  if (path.empty() || output_dir.empty() || path.front() == '/') return path;
  return output_dir + "/" + path;
}

/// Seeds the outcome's identity fields from the spec, so reports describe
/// jobs identically whichever front end ran them.
void init_outcome(Job& job) {
  const JobSpec& spec = *job.spec;
  job.outcome.name = spec.name;
  job.outcome.config_summary =
      spec.config.describe() + (spec.config.variable_width ? " var" : "") +
      " " + tiebreak_name(spec.tiebreak) + "/" + xassign_name(spec.xassign);
  if (!spec.codec.empty()) {
    job.outcome.config_summary += " codec=" + spec.codec;
  }
  job.outcome.container_version = spec.codec.empty() ? spec.container.version : 3;
}

// Stage bodies. Each may throw: run_stage maps exceptions to typed errors.

Status stage_load(GenMemo& gen, Job& job) {
  const JobSpec& spec = *job.spec;
  if (spec.inline_tests) {
    job.stream = spec.inline_tests->serialize();
    return {};
  }
  if (!spec.input_path.empty()) {
    job.stream = scan::read_tests_file(spec.input_path).serialize();
    return {};
  }
  // gen= source: memoized exp::prepare so concurrent jobs over the same
  // circuit never race on the ATPG disk cache.
  using StreamPtr = std::shared_ptr<const bits::TritVector>;
  std::shared_future<StreamPtr> future;
  std::promise<StreamPtr> promise;
  bool creator = false;
  {
    core::MutexLock lock(gen.mutex);
    auto it = gen.memo.find(spec.gen_circuit);
    if (it == gen.memo.end()) {
      future = promise.get_future().share();
      gen.memo.emplace(spec.gen_circuit, future);
      creator = true;
    } else {
      future = it->second;
    }
  }
  if (creator) {
    try {
      promise.set_value(std::make_shared<const bits::TritVector>(
          exp::prepare(spec.gen_circuit).tests.serialize()));
    } catch (...) {
      promise.set_exception(std::current_exception());
    }
  }
  job.stream = *future.get();
  return {};
}

Status stage_encode(Job& job, MetricsRegistry& metrics) {
  const JobSpec& spec = *job.spec;
  if (job.multi_codec()) {
    // Per-chunk codec selection. The reported compressed_bits stay in the
    // paper's accounting (tester stream only), the same metric the legacy
    // path reports, so mixed-codec and pure-LZW rows compare directly.
    Result<codec::SelectOptions> mode = codec::parse_codec_mode(spec.codec);
    if (!mode.ok()) return mode.error();
    codec::SelectOptions options = std::move(mode).take();
    options.lzw = spec.config;
    options.tiebreak = spec.tiebreak;
    if (spec.chunk_trits != 0) options.chunk_trits = spec.chunk_trits;
    Result<codec::EncodedChunks> chunks =
        codec::encode_chunks(job.stream, options, &metrics);
    if (!chunks.ok()) return chunks.error();
    job.chunks = std::move(chunks).take();
    job.outcome.original_bits = job.chunks.original_bits;
    job.outcome.compressed_bits = job.chunks.stats_bits;
    job.outcome.ratio_percent = codec::ratio_percent(job.chunks.original_bits,
                                                     job.chunks.stats_bits);
    return {};
  }
  const lzw::Encoder encoder(spec.config, spec.tiebreak);
  job.encoded = encoder.encode(job.stream, spec.xassign, spec.rng_seed);
  job.outcome.original_bits = job.encoded.original_bits;
  job.outcome.compressed_bits = job.encoded.compressed_bits();
  job.outcome.ratio_percent = job.encoded.ratio_percent();
  return {};
}

Status stage_container(Job& job) {
  const JobSpec& spec = *job.spec;
  std::ostringstream out;
  if (job.multi_codec()) {
    const std::uint32_t chunk_trits =
        spec.chunk_trits != 0 ? spec.chunk_trits : codec::kDefaultChunkTrits;
    lzw::write_image_v3(out, spec.config, job.chunks.original_bits,
                        chunk_trits, job.chunks.records);
  } else {
    lzw::write_image(out, job.encoded, spec.container);
  }
  job.container = std::move(out).str();
  job.outcome.container_bytes = job.container.size();
  return {};
}

Status stage_verify(Job& job) {
  // End-to-end check of what was actually containerized: read the bytes
  // back, decode, and prove the expansion covers every care bit of the
  // input — the invariant the whole repository is built around.
  std::istringstream in(job.container);
  Result<lzw::CompressedImage> image = lzw::try_read_image(in);
  if (!image.ok()) return image.error();
  // codec::decode_image routes v1/v2 through the LZW image decoder and v3
  // through the codec registry, so one verify covers both container paths.
  Result<bits::TritVector> decoded = codec::decode_image(image.value());
  if (!decoded.ok()) return decoded.error();
  if (decoded.value().size() != job.stream.size()) {
    return typed_error(ErrorKind::StreamTooShort,
                       "decoded stream length mismatch");
  }
  if (!job.stream.covered_by(decoded.value())) {
    return typed_error(ErrorKind::ConfigMismatch,
                       "decoded stream does not cover the input care bits");
  }
  return {};
}

/// The batch's commit step for a job with an output path.
Status write_output(Job& job) {
  const std::filesystem::path target(job.outcome.output_path);
  if (target.has_parent_path()) {
    std::filesystem::create_directories(target.parent_path());
  }
  std::ofstream out(job.outcome.output_path, std::ios::binary);
  if (!out.write(job.container.data(),
                 static_cast<std::streamsize>(job.container.size()))) {
    return typed_error(ErrorKind::IoError, "cannot write " + job.outcome.output_path);
  }
  return {};
}

/// Runs one stage of `job`: counts in/ok/fail/skip, times the body into
/// `<stage>.micros` and opens its span. A job that already failed or was
/// cancelled skips the stage. `cancel` is the batch's fail-fast flag (null
/// when there is none): once set, a job is cancelled at its next stage
/// boundary, and a failing stage sets it.
template <typename Body>
void run_stage(const StageMetrics& sm, const char* span_name, Job& job,
               std::atomic<bool>* cancel, Body&& body) {
  sm.in->add();
  if (cancel != nullptr && !job.failed &&
      cancel->load(std::memory_order_relaxed)) {
    job.outcome.cancelled = true;
  }
  if (job.failed || job.outcome.cancelled) {
    sm.skip->add();
    return;
  }
  Status status;
  {
    obs::TraceSpan span(span_name);
    span.arg("job", job.outcome.name);
    if (!job.spec->trace.empty()) span.arg("trace", job.spec->trace);
    const auto start = std::chrono::steady_clock::now();
    status = guarded([&]() -> Status { return body(job); });
    sm.micros->record(micros_since(start));
  }
  if (status.ok()) {
    sm.ok->add();
    return;
  }
  job.failed = true;
  job.outcome.status = std::move(status);
  sm.fail->add();
  if (cancel != nullptr) cancel->store(true, std::memory_order_relaxed);
}

/// The whole job path, load → encode → containerize → verify, on the
/// calling thread: an Engine::run pool task and JobRunner::worker_loop
/// both run a job through here.
void run_job(JobContext& ctx, Job& job, bool verify, std::atomic<bool>* cancel) {
  run_stage(ctx.load, "engine.load", job, cancel,
            [&ctx](Job& j) { return stage_load(ctx.gen, j); });
  run_stage(ctx.encode, "engine.encode", job, cancel, [&ctx](Job& j) {
    const Status status = stage_encode(j, ctx.registry);
    if (status.ok()) {
      ctx.bits_in->add(j.outcome.original_bits);
      ctx.bits_out->add(j.outcome.compressed_bits);
    }
    return status;
  });
  run_stage(ctx.container, "engine.container", job, cancel, stage_container);
  if (verify) run_stage(ctx.verify, "engine.verify", job, cancel, stage_verify);
}

/// Finished batch jobs waiting for the in-order commit: pool tasks fill
/// their manifest slot in any order, the committing thread takes slot
/// after slot.
class Slots {
 public:
  explicit Slots(std::size_t n) : jobs_(n) {}

  void fill(std::size_t i, std::unique_ptr<Job> job) TDC_EXCLUDES(mutex_) {
    {
      core::MutexLock lock(mutex_);
      jobs_[i] = std::move(job);
    }
    filled_.notify_one();  // the committer is the only waiter
  }

  std::unique_ptr<Job> take(std::size_t i) TDC_EXCLUDES(mutex_) {
    core::MutexLock lock(mutex_);
    while (jobs_[i] == nullptr) filled_.wait(lock);
    return std::move(jobs_[i]);
  }

 private:
  core::Mutex mutex_;
  core::CondVar filled_;
  std::vector<std::unique_ptr<Job>> jobs_ TDC_GUARDED_BY(mutex_);
};

}  // namespace

// ---------------------------------------------------------------- BatchResult

std::size_t BatchResult::ok_count() const {
  std::size_t n = 0;
  for (const auto& j : jobs) n += j.ok() ? 1 : 0;
  return n;
}

std::size_t BatchResult::failed_count() const {
  std::size_t n = 0;
  for (const auto& j : jobs) n += (!j.status.ok() && !j.cancelled) ? 1 : 0;
  return n;
}

std::size_t BatchResult::cancelled_count() const {
  std::size_t n = 0;
  for (const auto& j : jobs) n += j.cancelled ? 1 : 0;
  return n;
}

std::string BatchResult::report() const {
  exp::Table table({"Job", "Config", "Cont", "Orig", "Comp", "Ratio", "Status"});
  for (const JobOutcome& j : jobs) {
    std::string status = "ok";
    if (j.cancelled) {
      status = "cancelled";
    } else if (!j.status.ok()) {
      status = std::string("FAILED ") + to_string(j.status.error().kind);
    }
    table.add_row({j.name, j.config_summary,
                   "v" + std::to_string(j.container_version),
                   j.ok() ? exp::num(j.original_bits) : "-",
                   j.ok() ? exp::num(j.compressed_bits) : "-",
                   j.ok() ? exp::pct(j.ratio_percent) : "-", status});
  }
  return table.render();
}

// --------------------------------------------------------------------- Engine

Engine::Engine(EngineOptions options, MetricsRegistry* metrics)
    : options_(std::move(options)) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  } else {
    metrics_ = metrics;
  }
}

Engine::~Engine() = default;

BatchResult Engine::run(const Manifest& manifest, const CommitCallback& on_commit) {
  const std::size_t n = manifest.jobs.size();
  const unsigned workers =
      options_.workers != 0 ? options_.workers : exp::ThreadPool::default_jobs();

  obs::TraceSpan run_span("engine.run");
  run_span.arg("jobs", static_cast<std::uint64_t>(n));
  run_span.arg("workers", static_cast<std::uint64_t>(workers));

  MetricsRegistry& m = *metrics_;
  JobContext ctx(m);
  const StageMetrics commit_m(m, "commit");
  Counter& bytes_written = m.counter("commit.bytes_written");
  m.counter("engine.jobs").add(n);
  m.counter("engine.runs").add();

  // tdc-sync: advisory fail-fast flag; relaxed on both sides — stages only
  // skip work they would otherwise do, no data is published through it.
  std::atomic<bool> cancelled{false};
  // tdc-sync: the same flag as run_stage sees it; null without fail-fast.
  std::atomic<bool>* const cancel = options_.fail_fast ? &cancelled : nullptr;

  // Commit (calling thread, manifest order): the output file, commit.*
  // counters and span, the callback. A job that finished every stage
  // commits even after fail-fast tripped; a failed write trips it.
  const auto commit = [&](Job& job) {
    if (job.outcome.output_path.empty()) {
      commit_m.in->add();
      (job.failed || job.outcome.cancelled ? commit_m.skip : commit_m.ok)->add();
    } else {
      run_stage(commit_m, "engine.commit", job, nullptr, write_output);
      if (!job.failed && !job.outcome.cancelled) {
        bytes_written.add(job.container.size());
        job.container.clear();  // on disk now; don't hold the bytes twice
      } else if (job.failed && cancel != nullptr) {
        cancel->store(true, std::memory_order_relaxed);
      }
    }
    job.outcome.container = std::move(job.container);
    if (on_commit) on_commit(job.outcome);
  };

  const auto started = std::chrono::steady_clock::now();
  BatchResult result;
  result.jobs.resize(n);
  if (n != 0) {
    Slots slots(n);
    // One task per job, at most one thread per job. Declared after all the
    // state its tasks use: if on_commit throws, the pool's destructor
    // finishes the queued tasks before that state is destroyed.
    exp::ThreadPool pool(static_cast<unsigned>(std::min<std::size_t>(workers, n)));
    for (std::size_t i = 0; i < n; ++i) {
      // noexcept: run_stage turns stage errors into job failures, and a
      // task that threw anyway would leave its slot empty and the committer
      // waiting forever, so it ends the process instead.
      pool.submit([&, i]() noexcept {
        auto job = std::make_unique<Job>();
        job->spec = &manifest.jobs[i];
        init_outcome(*job);
        job->outcome.output_path =
            resolve_output(options_.output_dir, job->spec->output_path);
        run_job(ctx, *job, options_.verify, cancel);
        slots.fill(i, std::move(job));
      });
    }
    for (std::size_t next = 0; next < n; ++next) {
      const std::unique_ptr<Job> job = slots.take(next);
      commit(*job);
      result.jobs[next] = std::move(job->outcome);
    }
    pool.wait();
  }

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  m.counter("engine.ok").add(result.ok_count());
  m.counter("engine.failed").add(result.failed_count());
  m.counter("engine.cancelled").add(result.cancelled_count());
  return result;
}

// ------------------------------------------------------------------ JobRunner

namespace {

/// Adds the submission queue's contention counters into `m` as
/// "queue.<name>.*".
void add_queue_stats(MetricsRegistry& m, const std::string& name,
                     const exp::BoundedQueueStats& s) {
  const std::string prefix = "queue." + name + ".";
  m.counter(prefix + "pushes").add(s.pushes);
  m.counter(prefix + "pops").add(s.pops);
  m.counter(prefix + "push_blocked").add(s.push_blocked);
  m.counter(prefix + "pop_blocked").add(s.pop_blocked);
  m.counter(prefix + "push_blocked_micros").add(s.push_blocked_micros);
  m.counter(prefix + "pop_blocked_micros").add(s.pop_blocked_micros);
  m.counter(prefix + "notifies_sent").add(s.notifies_sent);
  m.counter(prefix + "notifies_skipped").add(s.notifies_skipped);
  // Occupancy is a level, not an event stream: the gauge is set to the
  // depth this snapshot saw (0 once drained) while the queue's own
  // lifetime max folds into the gauge's high-watermark.
  obs::Gauge& depth = m.gauge(prefix + "depth");
  depth.set(static_cast<std::int64_t>(s.depth));
  depth.record_peak(static_cast<std::int64_t>(s.max_depth));
}

}  // namespace

/// One queued submission: either a full compression job (spec + done
/// callback) or a raw closure from the service's decode-side endpoints.
struct JobRunner::Item {
  JobSpec spec;
  DoneCallback done;
  std::function<void()> task;  ///< when set, spec/done are unused
};

/// The job path's context plus the runner's own instruments — everything
/// the worker loop touches besides the queue.
struct JobRunner::RunnerState {
  explicit RunnerState(MetricsRegistry& m)
      : ctx(m), jobs(&m.counter("runner.jobs")), tasks(&m.counter("runner.tasks")),
        ok(&m.counter("runner.ok")), failed(&m.counter("runner.failed")),
        busy_rejects(&m.counter("runner.busy_rejects")),
        in_flight(&m.gauge("runner.in_flight")) {}

  JobContext ctx;
  Counter* jobs;
  Counter* tasks;
  Counter* ok;
  Counter* failed;
  Counter* busy_rejects;
  obs::Gauge* in_flight;  ///< live queued+running level; peak = worst burst
};

JobRunner::JobRunner(Options options, MetricsRegistry* metrics)
    : options_(options) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  } else {
    metrics_ = metrics;
  }
  if (options_.workers == 0) options_.workers = exp::ThreadPool::default_jobs();
  if (options_.max_in_flight == 0) {
    options_.max_in_flight = 2 * static_cast<std::size_t>(options_.workers);
  }
  state_ = std::make_unique<RunnerState>(*metrics_);
  // Queue capacity = the in-flight cap: with admissions counted before the
  // push, a submit never blocks on queue space.
  queue_ = std::make_unique<exp::BoundedQueue<std::unique_ptr<Item>>>(
      options_.max_in_flight);
  workers_.reserve(options_.workers);
  for (unsigned t = 0; t < options_.workers; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

JobRunner::~JobRunner() { stop(); }

void JobRunner::worker_loop() {
  while (auto item = queue_->pop()) {
    std::unique_ptr<Item> work = std::move(*item);
    if (work->task) {
      state_->tasks->add();
      obs::TraceSpan span("runner.task");
      work->task();
    } else {
      state_->jobs->add();
      Job job;
      job.spec = &work->spec;
      init_outcome(job);
      run_job(state_->ctx, job, options_.verify, nullptr);
      (job.failed ? state_->failed : state_->ok)->add();
      job.outcome.container = std::move(job.container);
      if (work->done) work->done(std::move(job.outcome));
    }
    release();
  }
}

bool JobRunner::submit(JobSpec spec, DoneCallback done) {
  auto item = std::make_unique<Item>();
  item->spec = std::move(spec);
  item->done = std::move(done);
  return admit(std::move(item));
}

bool JobRunner::submit_task(std::function<void()> task) {
  auto item = std::make_unique<Item>();
  item->task = std::move(task);
  return admit(std::move(item));
}

bool JobRunner::admit(std::unique_ptr<Item> item) {
  {
    core::MutexLock lock(mutex_);
    if (stopping_ || in_flight_ >= options_.max_in_flight) {
      state_->busy_rejects->add();
      return false;
    }
    ++in_flight_;
  }
  state_->in_flight->add(1);
  if (queue_->push(std::move(item))) return true;
  // A stop() between the admission and the push closed the queue: the item
  // was never queued, so its admission is rolled back.
  release();
  return false;
}

void JobRunner::release() {
  {
    core::MutexLock lock(mutex_);
    --in_flight_;
  }
  state_->in_flight->add(-1);
  idle_.notify_all();
}

std::size_t JobRunner::in_flight() const {
  core::MutexLock lock(mutex_);
  return in_flight_;
}

void JobRunner::drain() {
  core::MutexLock lock(mutex_);
  while (in_flight_ != 0) idle_.wait(lock);
}

void JobRunner::publish_queue_stats() {
  core::MutexLock lock(publish_mutex_);
  const exp::BoundedQueueStats now = queue_->stats();
  exp::BoundedQueueStats delta;
  delta.pushes = now.pushes - published_.pushes;
  delta.pops = now.pops - published_.pops;
  delta.push_blocked = now.push_blocked - published_.push_blocked;
  delta.pop_blocked = now.pop_blocked - published_.pop_blocked;
  delta.push_blocked_micros =
      now.push_blocked_micros - published_.push_blocked_micros;
  delta.pop_blocked_micros =
      now.pop_blocked_micros - published_.pop_blocked_micros;
  delta.notifies_sent = now.notifies_sent - published_.notifies_sent;
  delta.notifies_skipped = now.notifies_skipped - published_.notifies_skipped;
  // Occupancy levels pass through untouched — subtracting a previous depth
  // from a current one would be meaningless.
  delta.depth = now.depth;
  delta.max_depth = now.max_depth;
  add_queue_stats(*metrics_, "service", delta);
  published_ = now;
}

exp::BoundedQueueStats JobRunner::queue_stats() const { return queue_->stats(); }

void JobRunner::stop() {
  {
    core::MutexLock lock(mutex_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  // close() lets the workers drain everything already queued, then exit —
  // in-flight jobs complete, new submissions are refused above.
  queue_->close();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

}  // namespace tdc::engine
