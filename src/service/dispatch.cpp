#include "service/dispatch.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "codec/select.h"
#include "engine/manifest.h"
#include "lzw/stream_io.h"
#include "obs/json.h"
#include "obs/openmetrics.h"
#include "obs/trace.h"
#include "scan/testset_io.h"

namespace tdc::service {

namespace {

Error busy_error() {
  return Error{ErrorKind::Busy,
               "daemon at its in-flight cap; retry after a response drains"};
}

std::string u64_str(std::uint64_t v) { return std::to_string(v); }

/// Known ops get their own serve.<op>.* scope; everything else shares
/// serve.unknown.* so a hostile client cannot grow the registry unboundedly.
const char* metric_op(const std::string& op) {
  for (const char* known : {"ping", "compress", "decompress", "verify",
                            "inspect", "stats", "metrics"}) {
    if (op == known) return known;
  }
  return "unknown";
}

std::string container_summary(const lzw::ContainerInfo& c) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "TDCLZW%u (%llu B header + %llu B payload, %u %s)", c.version,
                static_cast<unsigned long long>(c.header_bytes),
                static_cast<unsigned long long>(c.payload_bytes), c.chunk_count,
                c.version >= 3 ? "records" : "chunks");
  return buf;
}

}  // namespace

void SlowLog::observe(SlowLogEntry entry) {
  core::MutexLock lock(mutex_);
  const auto at = std::upper_bound(
      entries_.begin(), entries_.end(), entry,
      [](const SlowLogEntry& a, const SlowLogEntry& b) { return a.micros > b.micros; });
  entries_.insert(at, std::move(entry));
  if (entries_.size() > capacity_) entries_.pop_back();
}

std::vector<SlowLogEntry> SlowLog::snapshot() const {
  core::MutexLock lock(mutex_);
  return entries_;
}

std::string SlowLog::to_json() const {
  std::string json = "[";
  bool first = true;
  for (const SlowLogEntry& e : snapshot()) {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "\"micros\": %llu, \"bytes_in\": %llu, \"bytes_out\": %llu, "
                  "\"error\": %s}",
                  static_cast<unsigned long long>(e.micros),
                  static_cast<unsigned long long>(e.bytes_in),
                  static_cast<unsigned long long>(e.bytes_out),
                  e.error ? "true" : "false");
    json += first ? "\n" : ",\n";
    json += "    {\"id\": \"" + obs::json_escape(e.id) + "\", \"op\": \"" +
            obs::json_escape(e.op) + "\", \"trace\": \"" +
            obs::json_escape(e.trace) + "\", ";
    json += buf;
    first = false;
  }
  json += first ? "]" : "\n  ]";
  return json;
}

Frame Dispatcher::handle(const Frame& request) {
  const auto start = std::chrono::steady_clock::now();
  obs::MetricScope scope(registry_, std::string("serve.") + metric_op(request.op));
  scope.counter("requests").add();
  scope.counter("bytes_in").add(request.payload.size());

  Frame response;
  std::uint64_t micros = 0;
  {
    // The request span closes before the latency is recorded so its
    // duration nests strictly inside what serve.<op>.micros reports.
    obs::TraceSpan span("serve.request");
    span.arg("op", request.op);
    span.arg("id", request.id);
    if (const std::string trace = request.param("trace"); !trace.empty()) {
      span.arg("trace", trace);
    }
    response = dispatch(request);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    micros = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
  }
  response.id = request.id;  // the one invariant every client relies on

  if (response.op == "error") scope.counter("errors").add();
  scope.counter("bytes_out").add(response.payload.size());
  scope.histogram("micros").record(micros);
  slowlog_.observe(SlowLogEntry{request.id, request.op, request.param("trace"),
                                micros, request.payload.size(),
                                response.payload.size(),
                                response.op == "error"});
  return response;
}

void Dispatcher::refresh_sampled_instruments() {
  registry_.gauge("process.rss_bytes")
      .set(static_cast<std::int64_t>(obs::process_rss_bytes()));
}

Frame Dispatcher::dispatch(const Frame& request) {
  if (request.op == "ping") {
    Frame resp;
    resp.op = "ok";
    resp.payload = request.payload;  // echo — liveness plus framing check
    return resp;
  }

  if (request.op == "stats") {
    // Served inline, deliberately NOT through the runner: stats must answer
    // even when every running slot is busy — that is exactly when an
    // operator asks for them.
    refresh_sampled_instruments();
    Frame resp;
    resp.op = "ok";
    resp.add_param("in_flight", u64_str(runner_.in_flight()));
    // Splice the slowlog array in as a sibling of counters/gauges/
    // histograms: the registry renders "...\n}\n", so the final brace is
    // reopened rather than teaching the obs layer about request logs.
    std::string json = registry_.to_json();
    json.resize(json.rfind('}'));
    json += "  ,\"slowlog\": " + slowlog_.to_json() + "\n}\n";
    resp.payload = std::move(json);
    return resp;
  }

  if (request.op == "metrics") {
    // Inline for the same reason as stats: the scrape endpoint must answer
    // while the runner is saturated.
    refresh_sampled_instruments();
    Frame resp;
    resp.op = "ok";
    resp.add_param("format", "openmetrics");
    resp.payload = obs::openmetrics_render(registry_);
    return resp;
  }

  if (request.op == "compress") return do_compress(request);

  if (request.op == "decompress") {
    return run_capped(request, [this, &payload = request.payload]() -> Result<Frame> {
      Result<lzw::CompressedImage> image = read_decodable(payload);
      if (!image.ok()) return image.error();
      Result<bits::TritVector> decoded = codec::decode_image(image.value());
      if (!decoded.ok()) return decoded.error();
      // The same single-cube expansion tdc_cli decompress writes: without
      // side information the stream is one long vector.
      scan::TestSet out;
      out.circuit = "decompressed";
      out.width = static_cast<std::uint32_t>(decoded.value().size());
      out.cubes.push_back(std::move(decoded).take());
      Frame resp;
      resp.op = "ok";
      resp.add_param("codes", u64_str(image.value().code_count));
      resp.add_param("bits", u64_str(out.cubes.front().size()));
      resp.payload = scan::format_tests(out);
      return resp;
    });
  }

  if (request.op == "verify") {
    return run_capped(request, [this, &payload = request.payload]() -> Result<Frame> {
      Result<lzw::CompressedImage> image = read_decodable(payload);
      if (!image.ok()) return image.error();
      const Result<bits::TritVector> decoded = codec::decode_image(image.value());
      if (!decoded.ok()) return decoded.error();
      const lzw::CompressedImage& img = image.value();
      Frame resp;
      resp.op = "ok";
      resp.add_param("version", u64_str(img.container.version));
      resp.add_param("codes", u64_str(img.code_count));
      resp.add_param("bits", u64_str(decoded.value().size()));
      resp.payload = "OK — " + container_summary(img.container) + "; " +
                     u64_str(img.code_count) +
                     (img.multi_codec() ? " records" : " codes") +
                     " decode to " + u64_str(decoded.value().size()) +
                     " scan bits";
      return resp;
    });
  }

  if (request.op == "inspect") {
    return run_capped(request, [&payload = request.payload]() -> Result<Frame> {
      std::istringstream in(payload, std::ios::binary);
      if (Result<lzw::CompressedImage> image = lzw::try_read_image(in);
          image.ok()) {
        const lzw::CompressedImage& img = image.value();
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "TDCLZW%u image, %s%s, %llu %s, %llu original bits, "
                      "%llu payload bits",
                      img.container.version, img.config.describe().c_str(),
                      img.config.variable_width ? " variable-width" : "",
                      static_cast<unsigned long long>(img.code_count),
                      img.multi_codec() ? "records" : "codes",
                      static_cast<unsigned long long>(img.original_bits),
                      static_cast<unsigned long long>(img.stream.bit_count()));
        Frame resp;
        resp.op = "ok";
        resp.add_param("kind", "image");
        resp.add_param("version", u64_str(img.container.version));
        resp.payload = std::string(buf) + "\n" +
                       container_summary(img.container) + "\n";
        return resp;
      }
      // Not a readable container: try the .tests text format.
      const scan::TestStream tests = scan::read_test_stream(payload);
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "test set '%s', %llu patterns x %u bits, %.1f%% don't-cares",
                    tests.circuit.c_str(),
                    static_cast<unsigned long long>(tests.patterns), tests.width,
                    100.0 * tests.stream.x_density());
      Frame resp;
      resp.op = "ok";
      resp.add_param("kind", "tests");
      resp.payload = std::string(buf) + "\n";
      return resp;
    });
  }

  return make_error_frame(request.id,
                          Error{ErrorKind::ProtocolError, "unknown op: " + request.op});
}

Frame Dispatcher::do_compress(const Frame& request) {
  // The spec is built and checked, and the .tests payload parsed, before
  // the runner sees it: a refusal costs no admission.
  engine::JobSpec spec;
  spec.name = request.param("name", "req-" + request.id);
  spec.trace = request.param("trace");
  Status checked;
  for (const auto& [key, value] : request.params) {
    if (checked.ok() && key != "name" && key != "trace") {
      checked = engine::set_job_param(spec, key, value);
    }
  }
  if (checked.ok()) checked = engine::check_job(spec);
  if (checked.ok()) {
    checked = engine::guarded([&spec, &request]() -> Status {
      spec.inline_stream = std::make_shared<const bits::TritVector>(
          scan::read_test_stream(request.payload).stream);
      return {};
    });
  }
  if (!checked.ok()) return make_error_frame(request.id, checked.error());

  std::optional<engine::JobOutcome> outcome = runner_.run(std::move(spec));
  if (!outcome) return make_error_frame(request.id, busy_error());
  if (!outcome->status.ok()) {
    return make_error_frame(request.id, outcome->status.error());
  }
  char ratio[32];
  std::snprintf(ratio, sizeof ratio, "%.2f", outcome->ratio_percent);
  Frame resp;
  resp.op = "ok";
  resp.add_param("original_bits", u64_str(outcome->original_bits));
  resp.add_param("compressed_bits", u64_str(outcome->compressed_bits));
  resp.add_param("container_bytes", u64_str(outcome->container_bytes));
  resp.add_param("version", u64_str(outcome->container_version));
  resp.add_param("ratio", ratio);
  resp.payload = std::move(outcome->container);
  return resp;
}

Result<lzw::CompressedImage> Dispatcher::read_decodable(const std::string& payload) const {
  std::istringstream in(payload, std::ios::binary);
  Result<lzw::CompressedImage> image = lzw::try_read_image(in);
  if (image.ok() && image.value().original_bits > max_payload_bytes_) {
    return Error{ErrorKind::ConfigMismatch,
                 "image declares " + u64_str(image.value().original_bits) +
                     " trits; a reply of more than " + u64_str(max_payload_bytes_) +
                     " bytes is refused"};
  }
  return image;
}

Frame Dispatcher::run_capped(const Frame& request,
                             const std::function<Result<Frame>()>& work) {
  std::optional<Result<Frame>> result;
  const std::string trace = request.param("trace");
  const bool ran = runner_.run_task([&] {
    // The runner-side half of the request's trace: same id as the
    // serve.request span, so the wait for a running slot is one query in
    // Perfetto.
    obs::TraceSpan span("serve.task");
    span.arg("op", request.op);
    if (!trace.empty()) span.arg("trace", trace);
    result.emplace(engine::guarded(work));
  });
  if (!ran) return make_error_frame(request.id, busy_error());
  if (!result->ok()) return make_error_frame(request.id, result->error());
  return std::move(*result).take();
}

}  // namespace tdc::service
