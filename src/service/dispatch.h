#ifndef TDC_SERVICE_DISPATCH_H
#define TDC_SERVICE_DISPATCH_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/thread_safety.h"
#include "engine/engine.h"
#include "lzw/stream_io.h"
#include "obs/metrics.h"
#include "service/framing.h"

namespace tdc::service {

/// One request in the slow-request ring: enough to find the matching spans
/// in a trace (id + trace) and to judge the request's weight (op, sizes).
struct SlowLogEntry {
  std::string id;
  std::string op;
  std::string trace;  ///< client-stamped trace id; empty if none
  std::uint64_t micros = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  bool error = false;
};

/// Bounded top-K-by-latency record of every request the dispatcher served —
/// the outlier capture a histogram cannot give back (a p99 says *that* slow
/// requests exist; the slowlog says *which*). observe() is O(K) under one
/// mutex with K small (default 16), so the per-request cost is noise next
/// to the socket round trip. Snapshot order is slowest-first.
class SlowLog {
 public:
  explicit SlowLog(std::size_t capacity = 16) : capacity_(capacity) {}

  void observe(SlowLogEntry entry);
  std::vector<SlowLogEntry> snapshot() const;

  /// `[{"id": …, "op": …, "trace": …, "micros": …, "bytes_in": …,
  /// "bytes_out": …, "error": …}, …]` — slowest first, deterministic
  /// for a fixed set of observations.
  std::string to_json() const;

 private:
  mutable core::Mutex mutex_;
  std::size_t capacity_;
  /// Sorted by micros, descending.
  std::vector<SlowLogEntry> entries_ TDC_GUARDED_BY(mutex_);
};

/// Maps one request frame to one response frame. All CPU-bound work
/// (compress jobs via JobRunner::run, decode-side ops via run_task) runs on
/// the calling connection thread under the runner's in-flight and running
/// caps, so a slow peer can only stall its own connection. Failures come
/// back as "error" frames carrying the typed ErrorKind; nothing a client
/// sends can make handle() throw.
///
/// Operations:
///   ping        payload echoed back — liveness and framing check
///   compress    payload: .tests text → payload: TDCLZW container bytes.
///               Params (all optional): the shared job keys of
///               engine::set_job_param, plus name and trace. Any other key
///               is refused, and so is a spec engine::check_job refuses:
///               ConfigMismatch with the manifest's message, answered
///               before admission or any payload parse. Defaults match
///               `tdc_cli compress` exactly, so the returned bytes are
///               identical to the offline tool's file.
///   decompress  payload: container bytes → payload: .tests text (the same
///               single-cube set `tdc_cli decompress` writes).
///   verify      payload: container bytes → integrity + decode check;
///               ok payload is a human-readable summary line.
///               decompress and verify refuse, before decoding, an image
///               that declares more trits than `max_payload_bytes`: one
///               .tests byte per trit would outgrow the reply cap.
///   inspect     payload: container bytes or .tests text → description.
///   stats       payload out: live obs registry JSON — counters (including
///               the per-codec codec.selected.* family the offline stats
///               subcommand reports), gauges, histograms — plus the
///               "slowlog" array; runner.in_flight is the live runner
///               occupancy.
///   metrics     payload out: the same registry in the OpenMetrics text
///               exposition format (obs::openmetrics_render) — the scrape
///               endpoint for Prometheus-shaped collectors.
///
/// Per-endpoint metrics land under "serve.<op>.*" (requests, errors,
/// bytes_in, bytes_out, micros) via obs::MetricScope; unknown ops share
/// "serve.unknown.*" so a hostile client cannot grow the registry without
/// bound.
///
/// Tracing: a client-stamped `trace=<id>` param is attached to this
/// request's serve.request span and propagated into the runner-side spans
/// (serve.task, engine.<stage>), so one Perfetto view follows the id from
/// the client process into the work that served it.
class Dispatcher {
 public:
  Dispatcher(engine::JobRunner& runner, obs::MetricsRegistry& registry,
             std::size_t max_payload_bytes = FrameLimits{}.max_payload_bytes,
             std::size_t slowlog_capacity = 16)
      : runner_(runner),
        registry_(registry),
        max_payload_bytes_(max_payload_bytes),
        slowlog_(slowlog_capacity) {}

  /// Handles one request synchronously. Never throws; never returns a frame
  /// whose id differs from the request's.
  Frame handle(const Frame& request);

  const SlowLog& slowlog() const { return slowlog_; }

 private:
  Frame dispatch(const Frame& request);
  Frame do_compress(const Frame& request);
  /// Runs `work` through the runner and returns its frame; Busy error
  /// frame when the in-flight cap refuses the task.
  Frame run_capped(const Frame& request, const std::function<Result<Frame>()>& work);
  /// Reads a container for decompress/verify, refusing one that declares
  /// more trits than max_payload_bytes_ before anything is decoded.
  Result<lzw::CompressedImage> read_decodable(const std::string& payload) const;
  /// Stamps process.rss_bytes — both reporting endpoints (stats, metrics)
  /// refresh through this before rendering.
  void refresh_sampled_instruments();

  engine::JobRunner& runner_;
  obs::MetricsRegistry& registry_;
  std::size_t max_payload_bytes_;
  SlowLog slowlog_;
};

}  // namespace tdc::service

#endif  // TDC_SERVICE_DISPATCH_H
