// Unit + concurrency coverage for the observability layer (src/obs):
// log2 histogram bucketing and approximate percentiles, the first-sample
// min seed, registry JSON determinism, and the trace-span recorder —
// including an 8-thread hammer (ObsConcurrencyTest.*) the CI TSan job runs
// to prove the instruments race-free under fire.
#include <algorithm>
#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"
#include "obs/trace.h"

namespace {

using namespace tdc;

// ------------------------------------------------------------------ buckets

TEST(BucketTest, ZeroHasItsOwnBucket) {
  EXPECT_EQ(obs::bucket_of(0), 0u);
  EXPECT_EQ(obs::bucket_upper(0), 0u);
}

TEST(BucketTest, PowersOfTwoLandOnBoundaries) {
  // Bucket b holds [2^(b-1), 2^b): 1 -> bucket 1, 2..3 -> bucket 2, ...
  EXPECT_EQ(obs::bucket_of(1), 1u);
  EXPECT_EQ(obs::bucket_of(2), 2u);
  EXPECT_EQ(obs::bucket_of(3), 2u);
  EXPECT_EQ(obs::bucket_of(4), 3u);
  EXPECT_EQ(obs::bucket_of(1023), 10u);
  EXPECT_EQ(obs::bucket_of(1024), 11u);
}

TEST(BucketTest, UpperBoundsAreInclusive) {
  for (std::size_t b = 1; b < 20; ++b) {
    EXPECT_EQ(obs::bucket_of(obs::bucket_upper(b)), b) << "bucket " << b;
    EXPECT_EQ(obs::bucket_of(obs::bucket_upper(b) + 1), b + 1) << "bucket " << b;
  }
}

TEST(BucketTest, HugeValuesClampToLastBucket) {
  EXPECT_EQ(obs::bucket_of(~0ull), obs::HistogramSnapshot::kBuckets - 1);
}

// ---------------------------------------------------------------- histogram

TEST(HistogramTest, HistogramFirstSampleSeedsMin) {
  // Snapshot.min defaults to 0 for the empty histogram; the first recorded
  // value must replace that default even when it is nonzero — otherwise any
  // series whose smallest sample is > 0 would report min=0 forever.
  obs::Histogram h;
  h.record(4096);
  const auto s = h.snapshot();
  EXPECT_EQ(s.min, 4096u);
  EXPECT_EQ(s.max, 4096u);
  EXPECT_EQ(s.count, 1u);

  // And a later, smaller sample still lowers it.
  h.record(7);
  EXPECT_EQ(h.snapshot().min, 7u);
  EXPECT_EQ(h.snapshot().max, 4096u);
}

TEST(HistogramTest, FirstSampleZeroKeepsMinZero) {
  obs::Histogram h;
  h.record(0);
  h.record(100);
  EXPECT_EQ(h.snapshot().min, 0u);
}

TEST(HistogramTest, CountSumMeanAccumulate) {
  obs::LocalHistogram h;
  for (std::uint64_t v : {1u, 2u, 3u, 4u}) h.record(v);
  const auto& s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 10u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
}

TEST(HistogramTest, EmptySnapshotReportsZeros) {
  const obs::HistogramSnapshot s;
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 0.0);
}

TEST(HistogramTest, MergeSeedsMinFromFirstNonEmptySnapshot) {
  // Regression sibling of HistogramFirstSampleSeedsMin, but for merge():
  // an empty snapshot's min is the 0 default, and folding a non-empty
  // snapshot in must adopt its min rather than keep that 0 — and the empty
  // side must never drag an established min back down to 0 either.
  obs::HistogramSnapshot empty, full;
  full.add(4096);
  empty.merge(full);
  EXPECT_EQ(empty.count, 1u);
  EXPECT_EQ(empty.min, 4096u);
  EXPECT_EQ(empty.max, 4096u);

  obs::HistogramSnapshot a;
  a.add(7);
  a.merge(obs::HistogramSnapshot{});  // empty other: a complete no-op
  EXPECT_EQ(a.count, 1u);
  EXPECT_EQ(a.min, 7u);
  EXPECT_EQ(a.max, 7u);

  obs::HistogramSnapshot still_empty;
  still_empty.merge(obs::HistogramSnapshot{});  // empty into empty
  EXPECT_EQ(still_empty.count, 0u);
  EXPECT_EQ(still_empty.min, 0u);
  EXPECT_EQ(still_empty.max, 0u);
}

TEST(HistogramTest, MergeFoldsMinMaxAndBuckets) {
  obs::HistogramSnapshot a, b;
  a.add(10);
  a.add(100);
  b.add(3);
  b.add(5000);
  a.merge(b);
  EXPECT_EQ(a.count, 4u);
  EXPECT_EQ(a.sum, 10u + 100u + 3u + 5000u);
  EXPECT_EQ(a.min, 3u);
  EXPECT_EQ(a.max, 5000u);

  // Merging into an empty snapshot adopts the other's envelope.
  obs::HistogramSnapshot empty;
  empty.merge(a);
  EXPECT_EQ(empty.min, 3u);
  EXPECT_EQ(empty.max, 5000u);

  // Merging an empty snapshot changes nothing (min must not become 0).
  a.merge(obs::HistogramSnapshot{});
  EXPECT_EQ(a.min, 3u);
}

// -------------------------------------------------------------- percentiles

TEST(PercentileTest, SingleSampleIsEveryPercentile) {
  obs::LocalHistogram h;
  h.record(777);
  const auto& s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.p50(), 777.0);
  EXPECT_DOUBLE_EQ(s.p95(), 777.0);
  EXPECT_DOUBLE_EQ(s.p99(), 777.0);
}

TEST(PercentileTest, ClampedToExactEnvelope) {
  obs::LocalHistogram h;
  h.record(10);
  h.record(1000);
  const auto& s = h.snapshot();
  EXPECT_GE(s.percentile(0.0), 10.0);
  EXPECT_LE(s.percentile(1.0), 1000.0);
}

TEST(PercentileTest, MonotonicInQ) {
  obs::LocalHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const auto& s = h.snapshot();
  double prev = 0.0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
    const double p = s.percentile(q);
    EXPECT_GE(p, prev) << "q=" << q;
    prev = p;
  }
}

TEST(PercentileTest, UniformSeriesLandsNearTrueQuantile) {
  // 1..1000 uniformly: log2 buckets are coarse, so allow one bucket span of
  // error, but p50 must land in the right region, not at an edge.
  obs::LocalHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const auto& s = h.snapshot();
  EXPECT_GT(s.p50(), 250.0);
  EXPECT_LT(s.p50(), 1000.0);
  EXPECT_GT(s.p99(), 900.0);
}

TEST(PercentileTest, DeterministicAcrossInsertionOrder) {
  obs::LocalHistogram fwd, rev;
  for (std::uint64_t v = 1; v <= 500; ++v) fwd.record(v);
  for (std::uint64_t v = 500; v >= 1; --v) rev.record(v);
  EXPECT_DOUBLE_EQ(fwd.snapshot().p50(), rev.snapshot().p50());
  EXPECT_DOUBLE_EQ(fwd.snapshot().p95(), rev.snapshot().p95());
  EXPECT_DOUBLE_EQ(fwd.snapshot().p99(), rev.snapshot().p99());
}

// ------------------------------------------------------------ JSON surfaces

TEST(JsonTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(obs::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(obs::json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonTest, SnapshotSummaryHasPercentileFields) {
  obs::LocalHistogram h;
  h.record(8);
  const std::string json = obs::snapshot_summary_json(h.snapshot());
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p50\": 8.000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p95\": 8.000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\": 8.000"), std::string::npos) << json;
}

TEST(JsonTest, SummaryLineIsCompact) {
  obs::LocalHistogram h;
  h.record(161);
  EXPECT_EQ(obs::snapshot_summary_line(h.snapshot()),
            "count=1 min=161 p50=161.0 p95=161.0 p99=161.0 max=161 mean=161.0");
}

// ----------------------------------------------------------------- registry

TEST(RegistryTest, InstrumentsAreStableAndNamed) {
  obs::MetricsRegistry m;
  obs::Counter& c = m.counter("x");
  c.add(3);
  EXPECT_EQ(&m.counter("x"), &c);  // same name, same instrument
  EXPECT_EQ(m.counter("x").value(), 3u);
  m.histogram("h").record(42);
  EXPECT_EQ(m.histogram("h").snapshot().count, 1u);
}

TEST(RegistryTest, ToJsonIsDeterministicAndSorted) {
  const auto build = [] {
    obs::MetricsRegistry m;
    m.counter("zeta").add(1);
    m.counter("alpha").add(2);
    m.histogram("lat").record(100);
    m.histogram("lat").record(200);
    return m.to_json();
  };
  const std::string a = build();
  EXPECT_EQ(a, build());
  EXPECT_LT(a.find("alpha"), a.find("zeta"));  // std::map ordering
  EXPECT_NE(a.find("\"p95\""), std::string::npos) << a;
  EXPECT_NE(a.find("\"buckets\""), std::string::npos) << a;
}

// The tdc::engine aliases must stay source-compatible with PR 3 call sites.
TEST(RegistryTest, EngineAliasStillCompiles) {
  obs::MetricsRegistry m;
  {
    obs::ScopedTimer t(m.histogram("alias.micros"));
  }
  EXPECT_EQ(m.histogram("alias.micros").snapshot().count, 1u);
}

// -------------------------------------------------------------------- gauge

TEST(GaugeTest, SetAddAndPeakTrackHighWatermark) {
  obs::Gauge g;
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.peak(), 0);
  g.set(5);
  EXPECT_EQ(g.value(), 5);
  EXPECT_EQ(g.peak(), 5);
  g.add(3);
  EXPECT_EQ(g.value(), 8);
  EXPECT_EQ(g.peak(), 8);
  g.add(-6);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.peak(), 8);  // the peak never follows the level down
  g.set(1);
  EXPECT_EQ(g.value(), 1);
  EXPECT_EQ(g.peak(), 8);
}

TEST(GaugeTest, RegistryGaugeIsStableAndRendered) {
  obs::MetricsRegistry m;
  obs::Gauge& g = m.gauge("g.depth");
  g.set(4);
  EXPECT_EQ(&m.gauge("g.depth"), &g);
  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"gauges\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"g.depth\": {\"value\": 4, \"peak\": 4}"),
            std::string::npos)
      << json;
}

// -------------------------------------------------------------- rate window

TEST(RateWindowTest, ComputesPerSecondRateFromDeltas) {
  obs::RateWindow w;
  EXPECT_DOUBLE_EQ(w.per_second(), 0.0);  // empty
  w.sample(0, 0);
  EXPECT_DOUBLE_EQ(w.per_second(), 0.0);  // one sample is no rate
  w.sample(1000, 10);
  EXPECT_DOUBLE_EQ(w.per_second(), 10.0);
  w.sample(2000, 30);
  EXPECT_DOUBLE_EQ(w.per_second(), 15.0);  // (30 - 0) over 2 s
}

TEST(RateWindowTest, CounterResetClearsWindow) {
  obs::RateWindow w;
  w.sample(0, 100);
  w.sample(1000, 200);
  w.sample(2000, 5);  // counter went backwards: the daemon restarted
  EXPECT_EQ(w.size(), 1u);
  EXPECT_DOUBLE_EQ(w.per_second(), 0.0);
  w.sample(3000, 25);
  EXPECT_DOUBLE_EQ(w.per_second(), 20.0);  // rates resume from the restart
}

TEST(RateWindowTest, EqualValueIsNotAReset) {
  obs::RateWindow w;
  w.sample(0, 50);
  w.sample(1000, 50);  // flat counter: a quiet second, not a restart
  EXPECT_EQ(w.size(), 2u);
  EXPECT_DOUBLE_EQ(w.per_second(), 0.0);
  w.sample(2000, 80);
  EXPECT_DOUBLE_EQ(w.per_second(), 15.0);  // (80 - 50) over the full 2 s
}

TEST(RateWindowTest, ResetKeepsTheRestartSampleAsNewBaseline) {
  obs::RateWindow w;
  w.sample(0, 100);
  w.sample(1000, 0);  // restart all the way back to zero
  EXPECT_EQ(w.size(), 1u);
  EXPECT_DOUBLE_EQ(w.per_second(), 0.0);
  w.sample(2000, 7);
  EXPECT_DOUBLE_EQ(w.per_second(), 7.0);  // only post-restart samples count
}

TEST(RateWindowTest, BackToBackResetsAlwaysRetainTheLatestSample) {
  obs::RateWindow w(4);
  w.sample(0, 90);
  w.sample(1000, 60);
  w.sample(2000, 30);  // strictly descending: every sample reads as a restart
  EXPECT_EQ(w.size(), 1u);
  EXPECT_DOUBLE_EQ(w.per_second(), 0.0);
  w.sample(2500, 30);  // equal to the baseline: retained, still no rate
  w.sample(3000, 90);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w.per_second(), 60.0);  // (90 - 30) over 1 s
}

TEST(RateWindowTest, WindowIsBoundedByCapacity) {
  obs::RateWindow w(4);
  for (std::uint64_t i = 0; i < 10; ++i) w.sample(i * 1000, i * 10);
  EXPECT_EQ(w.size(), 4u);
  // Oldest retained sample is i=6: (90 - 60) over 3 s.
  EXPECT_DOUBLE_EQ(w.per_second(), 10.0);
}

TEST(RateWindowTest, ZeroElapsedTimeIsZeroRate) {
  obs::RateWindow w;
  w.sample(500, 1);
  w.sample(500, 100);
  EXPECT_DOUBLE_EQ(w.per_second(), 0.0);
}

// -------------------------------------------------------------- openmetrics

TEST(OpenMetricsTest, NamesArePrefixedAndSanitized) {
  EXPECT_EQ(obs::openmetrics_name("serve.compress.requests"),
            "tdc_serve_compress_requests");
  EXPECT_EQ(obs::openmetrics_name("runner.in_flight"),
            "tdc_runner_in_flight");
  EXPECT_EQ(obs::openmetrics_name("weird-name+x"), "tdc_weird_name_x");
}

TEST(OpenMetricsTest, RendersCounterGaugeAndSummaryFamilies) {
  obs::MetricsRegistry m;
  m.counter("serve.requests").add(3);
  obs::Gauge& g = m.gauge("queue.depth");
  g.set(9);
  g.set(2);
  m.histogram("lat.micros").record(100);
  const std::string text = obs::openmetrics_render(m);

  EXPECT_NE(text.find("# TYPE tdc_serve_requests counter\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("tdc_serve_requests_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tdc_queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("tdc_queue_depth 2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tdc_queue_depth_peak gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("tdc_queue_depth_peak 9\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tdc_lat_micros summary\n"), std::string::npos);
  EXPECT_NE(text.find("tdc_lat_micros{quantile=\"0.5\"} "), std::string::npos);
  EXPECT_NE(text.find("tdc_lat_micros{quantile=\"0.95\"} "),
            std::string::npos);
  EXPECT_NE(text.find("tdc_lat_micros{quantile=\"0.99\"} "),
            std::string::npos);
  EXPECT_NE(text.find("tdc_lat_micros_sum 100\n"), std::string::npos);
  EXPECT_NE(text.find("tdc_lat_micros_count 1\n"), std::string::npos);
  // The exposition must end with the OpenMetrics terminator.
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

TEST(OpenMetricsTest, RenderIsDeterministic) {
  const auto build = [] {
    obs::MetricsRegistry m;
    m.counter("zeta").add(1);
    m.counter("alpha").add(2);
    m.gauge("mid").set(5);
    m.histogram("lat").record(10);
    return obs::openmetrics_render(m);
  };
  const std::string a = build();
  EXPECT_EQ(a, build());
  EXPECT_LT(a.find("tdc_alpha_total"), a.find("tdc_zeta_total"));
}

TEST(OpenMetricsTest, NdjsonLineIsOneJsonObject) {
  obs::MetricsRegistry m;
  m.counter("c").add(2);
  m.gauge("g").set(-3);
  m.histogram("h").record(8);
  const std::string line = obs::metrics_ndjson_line(m.snapshot(), 42);
  EXPECT_EQ(line.find("{\"ts_ms\": 42, \"counters\": {\"c\": 2}"), 0u) << line;
  EXPECT_NE(line.find("\"gauges\": {\"g\": {\"value\": -3, \"peak\": 0}}"),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"histograms\": {\"h\": "), std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // one line, no newline
  EXPECT_EQ(line.back(), '}');
}

TEST(OpenMetricsTest, ProcessRssIsNonZeroOnLinux) {
#if defined(__linux__)
  EXPECT_GT(obs::process_rss_bytes(), 0u);
#else
  GTEST_SKIP();
#endif
}

// ---------------------------------------------------------------------- log

TEST(LogTest, DisabledSiteEmitsNothing) {
  obs::Log log;  // default level Off, no sink
  log.info("never").str("k", "v").u64("n", 1);
  EXPECT_EQ(log.emitted(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_FALSE(log.enabled(obs::LogLevel::Error));
}

TEST(LogTest, LinesAreDeterministicWithInjectedClock) {
  obs::Log log;
  std::vector<std::string> lines;
  obs::Log::Options o;
  o.level = obs::LogLevel::Info;
  o.sink = [&lines](const std::string& line) { lines.push_back(line); };
  o.clock = [] { return std::uint64_t{12}; };
  log.configure(std::move(o));

  log.info("server.listen")
      .str("socket", "/tmp/x.sock")
      .u64("workers", 4)
      .i64("delta", -2)
      .boolean("verify", true)
      .f64("ratio", 2.5);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0],
            "{\"ts_ms\": 12, \"level\": \"info\", \"event\": \"server.listen\""
            ", \"socket\": \"/tmp/x.sock\", \"workers\": 4, \"delta\": -2"
            ", \"verify\": true, \"ratio\": 2.500}");
  EXPECT_EQ(log.emitted(), 1u);
}

TEST(LogTest, LevelThresholdFilters) {
  obs::Log log;
  std::vector<std::string> lines;
  obs::Log::Options o;
  o.level = obs::LogLevel::Warn;
  o.sink = [&lines](const std::string& line) { lines.push_back(line); };
  o.clock = [] { return std::uint64_t{0}; };
  log.configure(std::move(o));

  EXPECT_FALSE(log.enabled(obs::LogLevel::Debug));
  EXPECT_FALSE(log.enabled(obs::LogLevel::Info));
  EXPECT_TRUE(log.enabled(obs::LogLevel::Warn));
  log.debug("d");
  log.info("i");
  log.warn("w");
  log.error("e");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"event\": \"w\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"event\": \"e\""), std::string::npos);
}

TEST(LogTest, TokenBucketDropsAndSurfacesCount) {
  obs::Log log;
  std::vector<std::string> lines;
  std::uint64_t now = 0;
  obs::Log::Options o;
  o.level = obs::LogLevel::Info;
  o.sink = [&lines](const std::string& line) { lines.push_back(line); };
  o.clock = [&now] { return now; };
  o.rate_per_sec = 1.0;
  o.burst = 2.0;
  log.configure(std::move(o));

  for (int i = 0; i < 5; ++i) log.info("flood").u64("i", i);
  EXPECT_EQ(lines.size(), 2u);  // burst of 2, then the bucket is dry
  EXPECT_EQ(log.emitted(), 2u);
  EXPECT_EQ(log.dropped(), 3u);

  now = 4000;  // 4 s later: refill (clamped to burst)
  log.info("after");
  ASSERT_EQ(lines.size(), 3u);
  // The suppression window is surfaced on the next emitted line.
  EXPECT_NE(lines[2].find("\"dropped\": 3"), std::string::npos) << lines[2];
  EXPECT_EQ(lines[2].back(), '}');
}

TEST(LogTest, ParseLevelRoundTrips) {
  for (const obs::LogLevel level :
       {obs::LogLevel::Debug, obs::LogLevel::Info, obs::LogLevel::Warn,
        obs::LogLevel::Error, obs::LogLevel::Off}) {
    EXPECT_EQ(obs::parse_log_level(obs::log_level_name(level)), level);
  }
  EXPECT_EQ(obs::parse_log_level("bogus"), obs::LogLevel::Off);
}

// -------------------------------------------------------------------- trace

TEST(TraceTest, DisabledRecorderKeepsSpansFree) {
  obs::TraceRecorder& rec = obs::TraceRecorder::global();
  ASSERT_FALSE(rec.enabled());
  {
    obs::TraceSpan span("never.recorded");
    span.arg("k", std::string("v"));
  }
  EXPECT_EQ(rec.event_count(), 0u);
}

TEST(TraceTest, RecordsNestedSpansWithArgs) {
  obs::TraceRecorder& rec = obs::TraceRecorder::global();
  rec.enable("/dev/null");
  {
    obs::TraceSpan outer("outer");
    outer.arg("job", std::string("j1"));
    {
      obs::TraceSpan inner("inner");
      inner.arg("n", std::uint64_t{7});
    }
  }
  EXPECT_EQ(rec.event_count(), 2u);
  std::ostringstream out;
  rec.write_json(out);  // drains and disables
  const std::string json = out.str();
  EXPECT_FALSE(rec.enabled());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"outer\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\": \"inner\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"job\": \"j1\""), std::string::npos);
  EXPECT_NE(json.find("\"n\": \"7\""), std::string::npos);
}

TEST(TraceTest, ReenableDropsPreviousWindow) {
  obs::TraceRecorder& rec = obs::TraceRecorder::global();
  rec.enable("/dev/null");
  { obs::TraceSpan span("stale"); }
  rec.enable("/dev/null");  // new window: previous spans dropped
  EXPECT_EQ(rec.event_count(), 0u);
  { obs::TraceSpan span("fresh"); }
  std::ostringstream out;
  rec.write_json(out);
  EXPECT_EQ(out.str().find("stale"), std::string::npos);
  EXPECT_NE(out.str().find("fresh"), std::string::npos);
}

// -------------------------------------------------------------- concurrency
//
// The CI TSan job runs exactly these (--gtest_filter=ObsConcurrencyTest.*):
// one registry and the global trace recorder hammered from 8 threads, with
// snapshot totals checked against the work submitted.

constexpr unsigned kThreads = 8;

TEST(ObsConcurrencyTest, RegistryTotalsMatchSubmittedWork) {
  constexpr std::uint64_t kAddsPerThread = 20000;
  constexpr std::uint64_t kSamplesPerThread = 2000;
  obs::MetricsRegistry m;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&m, t] {
      // Half the threads resolve the instruments by name each time (the
      // registry lock path), half keep the reference (the hot path).
      obs::Counter& c = m.counter("conc.counter");
      obs::Histogram& h = m.histogram("conc.hist");
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) {
        if (t % 2 == 0) {
          c.add();
        } else {
          m.counter("conc.counter").add();
        }
      }
      for (std::uint64_t i = 1; i <= kSamplesPerThread; ++i) h.record(i);
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(m.counter("conc.counter").value(), kThreads * kAddsPerThread);
  const auto s = m.histogram("conc.hist").snapshot();
  EXPECT_EQ(s.count, kThreads * kSamplesPerThread);
  EXPECT_EQ(s.sum, kThreads * kSamplesPerThread * (kSamplesPerThread + 1) / 2);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, kSamplesPerThread);
}

TEST(ObsConcurrencyTest, GaugeAddsBalanceAndPeakIsStable) {
  constexpr std::uint64_t kOpsPerThread = 20000;
  obs::MetricsRegistry m;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&m, t] {
      obs::Gauge& g = m.gauge("conc.gauge");
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
        if (t % 2 == 0) {
          g.add(1);
          g.add(-1);
        } else {
          m.gauge("conc.gauge").add(1);  // the registry lock path
          m.gauge("conc.gauge").add(-1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Every +1 was matched by a -1, so the level settles at zero; the peak
  // is at least one and can never exceed the number of threads (each holds
  // at most one outstanding increment).
  EXPECT_EQ(m.gauge("conc.gauge").value(), 0);
  EXPECT_GE(m.gauge("conc.gauge").peak(), 1);
  EXPECT_LE(m.gauge("conc.gauge").peak(),
            static_cast<std::int64_t>(kThreads));
}

TEST(ObsConcurrencyTest, ConcurrentPeakFoldsConvergeToMax) {
  constexpr std::int64_t kFoldsPerThread = 20000;
  obs::MetricsRegistry m;
  obs::Gauge& g = m.gauge("conc.peakfold");
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g, t] {
      // Interleave ascending and descending levels so the peak's CAS loop
      // exercises both the raise-and-win and the reload-and-retry paths.
      for (std::int64_t i = 0; i < kFoldsPerThread; ++i) {
        const std::int64_t v = (t % 2 == 0) ? i : kFoldsPerThread - i;
        g.set(v);
      }
    });
  }
  for (auto& th : threads) th.join();
  // The level is whichever set() landed last, while racing folds must
  // settle on exactly the global maximum — the fold is monotone, so no
  // interleaving can lose it.
  EXPECT_GE(g.value(), 0);
  EXPECT_LE(g.value(), kFoldsPerThread);
  EXPECT_EQ(g.peak(), kFoldsPerThread);
}

TEST(ObsConcurrencyTest, HistogramMergeRecordAndSnapshotRace) {
  // Annotation-consistency hammer for Histogram's lock: bulk merges from
  // per-thread local shards race single-sample records while a reader
  // snapshots mid-flight. Every sample must land exactly once, and every
  // snapshot must be internally consistent (it copies under the same mutex
  // the TDC_GUARDED_BY annotation names).
  constexpr std::uint64_t kSamples = 4000;
  obs::MetricsRegistry m;
  obs::Histogram& h = m.histogram("conc.merge");
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) {
      const auto s = h.snapshot();
      EXPECT_LE(s.min, s.max);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      if (t % 2 == 0) {
        obs::LocalHistogram local;
        for (std::uint64_t i = 1; i <= kSamples; ++i) local.record(i);
        h.merge(local.snapshot());
      } else {
        for (std::uint64_t i = 1; i <= kSamples; ++i) h.record(i);
      }
    });
  }
  for (auto& th : threads) th.join();
  done.store(true);
  reader.join();
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, kThreads * kSamples);
  EXPECT_EQ(s.sum, kThreads * kSamples * (kSamples + 1) / 2);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, kSamples);
}

TEST(ObsConcurrencyTest, TraceRecorderCountsOverlappingSpans) {
  constexpr std::size_t kSpansPerThread = 500;
  obs::TraceRecorder& rec = obs::TraceRecorder::global();
  rec.enable("/dev/null");

  std::atomic<unsigned> barrier{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      barrier.fetch_add(1);
      while (barrier.load() < kThreads) {
      }  // start together: maximal overlap
      for (std::size_t i = 0; i < kSpansPerThread; ++i) {
        obs::TraceSpan outer("conc.outer");
        outer.arg("i", static_cast<std::uint64_t>(i));
        obs::TraceSpan inner("conc.inner");
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(rec.event_count(), kThreads * kSpansPerThread * 2);
  std::ostringstream out;
  rec.write_json(out);
  // Every span made it into the rendered JSON.
  const std::string json = out.str();
  std::size_t outer_count = 0;
  for (std::size_t at = json.find("conc.outer"); at != std::string::npos;
       at = json.find("conc.outer", at + 1)) {
    ++outer_count;
  }
  EXPECT_EQ(outer_count, kThreads * kSpansPerThread);
}

TEST(ObsConcurrencyTest, EnableFlushRacesWithRecorders) {
  // Spans racing an enable()/write_json() cycle must never crash or deadlock;
  // exact counts are unknowable here, so this is a pure TSan target.
  obs::TraceRecorder& rec = obs::TraceRecorder::global();
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        obs::TraceSpan span("race.span");
      }
    });
  }
  for (int cycle = 0; cycle < 20; ++cycle) {
    rec.enable("/dev/null");
    std::ostringstream out;
    rec.write_json(out);
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  // Leave the global recorder drained for whatever test runs next.
  std::ostringstream out;
  rec.write_json(out);
}

}  // namespace
