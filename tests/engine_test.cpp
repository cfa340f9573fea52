// Tests for the batch compression engine: the bounded MPMC queue behind
// JobRunner, the metrics registry, the manifest format, and the engine
// itself — the jobs=1 vs jobs=N byte-identical determinism golden, per-job
// failure isolation, fail-fast cancellation, and in-order commit.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bits/rng.h"
#include "engine/engine.h"
#include "engine/manifest.h"
#include "engine/metrics.h"
#include "exp/bounded_queue.h"
#include "scan/testset.h"
#include "scan/testset_io.h"

namespace tdc::engine {
namespace {

// ---------------------------------------------------------------- queue

TEST(BoundedQueueTest, DeliversInFifoOrder) {
  exp::BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 5; ++i) {
    const std::optional<int> v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(BoundedQueueTest, ZeroCapacityClampsToOne) {
  exp::BoundedQueue<int> q(0);
  EXPECT_EQ(q.capacity(), 1u);
}

TEST(BoundedQueueTest, FullQueueBlocksProducerUntilPop) {
  exp::BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    q.push(2);
    second_pushed.store(true);
  });
  // The producer must be stuck on the full queue (backpressure).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_pushed.load());
  EXPECT_EQ(q.pop().value_or(-1), 1);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_EQ(q.pop().value_or(-1), 2);
}

TEST(BoundedQueueTest, CloseDrainsQueuedItemsThenSignalsEnd) {
  exp::BoundedQueue<int> q(4);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  q.close();
  EXPECT_FALSE(q.push(3));  // rejected after close
  EXPECT_EQ(q.pop().value_or(-1), 1);
  EXPECT_EQ(q.pop().value_or(-1), 2);
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(q.pop().has_value());  // stays closed
}

TEST(BoundedQueueTest, CloseUnblocksWaitingConsumer) {
  exp::BoundedQueue<int> q(4);
  std::atomic<bool> saw_end{false};
  std::thread consumer([&] {
    if (!q.pop().has_value()) saw_end.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  consumer.join();
  EXPECT_TRUE(saw_end.load());
}

TEST(BoundedQueueTest, ManyProducersManyConsumersLoseNothing) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 250;
  exp::BoundedQueue<int> q(3);  // small on purpose: constant backpressure
  std::atomic<long long> sum{0};
  std::atomic<int> popped{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) q.push(p * kPerProducer + i);
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (const std::optional<int> v = q.pop()) {
        sum.fetch_add(*v);
        popped.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  q.close();
  for (auto& t : consumers) t.join();

  const int total = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), total);
  EXPECT_EQ(sum.load(), static_cast<long long>(total) * (total - 1) / 2);
}

TEST(BoundedQueueTest, StatsCountSkippedNotifiesAndBlockedWaits) {
  exp::BoundedQueue<int> lazy(4);
  // Uncontended hand-off: nobody is waiting, so every notify is skipped.
  ASSERT_TRUE(lazy.push(1));
  ASSERT_TRUE(lazy.push(2));
  EXPECT_TRUE(lazy.pop().has_value());
  EXPECT_TRUE(lazy.pop().has_value());
  auto st = lazy.stats();
  EXPECT_EQ(st.notifies_sent, 0u);
  EXPECT_EQ(st.notifies_skipped, 4u);  // 2 pushes + 2 pops
  EXPECT_EQ(st.push_blocked, 0u);
  EXPECT_EQ(st.pop_blocked, 0u);
  EXPECT_EQ(st.blocked_micros(), 0u);

  // A consumer that really sleeps is counted, and its wakeup notify is sent.
  exp::BoundedQueue<int> blocked(4);
  std::thread consumer([&] { EXPECT_EQ(blocked.pop().value_or(-1), 7); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(blocked.push(7));
  consumer.join();
  st = blocked.stats();
  EXPECT_EQ(st.pop_blocked, 1u);
  EXPECT_EQ(st.notifies_sent, 1u);  // the push that woke the sleeper
}

// Annotation-consistency hammer: stats() snapshots race full push/pop
// traffic and a close(). The snapshot copies under the same core::Mutex
// the TDC_GUARDED_BY annotations name, so under TSan this test proves the
// declared locking contract matches the real one; without TSan it still
// pins snapshot monotonicity and final conservation.
TEST(BoundedQueueTest, StatsSnapshotsRaceWithTraffic) {
  constexpr int kProducers = 2;
  constexpr int kPerProducer = 300;
  exp::BoundedQueue<int> q(2);
  std::atomic<bool> done{false};
  std::atomic<int> popped{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) q.push(p * kPerProducer + i);
    });
  }
  threads.emplace_back([&] {
    while (q.pop().has_value()) popped.fetch_add(1);
  });
  std::thread reader([&] {
    std::uint64_t last_pushes = 0;
    std::uint64_t last_pops = 0;
    while (!done.load()) {
      const auto st = q.stats();
      EXPECT_GE(st.pushes, last_pushes);  // monotone under the lock
      EXPECT_GE(st.pops, last_pops);
      EXPECT_GE(st.pushes, st.pops);  // never popped more than pushed
      last_pushes = st.pushes;
      last_pops = st.pops;
      std::this_thread::yield();
    }
  });
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  q.close();
  threads.back().join();
  done.store(true);
  reader.join();

  const int total = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), total);
  const auto st = q.stats();
  EXPECT_EQ(st.pushes, static_cast<std::uint64_t>(total));
  EXPECT_EQ(st.pops, static_cast<std::uint64_t>(total));
}

// -------------------------------------------------------------- metrics

TEST(MetricsTest, CounterAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(MetricsTest, HistogramSnapshotTracksRange) {
  Histogram h;
  h.record(1);
  h.record(2);
  h.record(1000);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.sum, 1003u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_DOUBLE_EQ(s.mean(), 1003.0 / 3.0);
}

TEST(MetricsTest, RegistryJsonIsDeterministicAndNamed) {
  MetricsRegistry registry;
  registry.counter("zeta").add(7);
  registry.counter("alpha").add(1);
  registry.histogram("lat").record(5);
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("\"alpha\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"zeta\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
  // Same registry, same bytes: map-ordered keys, no timestamps.
  EXPECT_EQ(json, registry.to_json());
  // Sorted: "alpha" renders before "zeta".
  EXPECT_LT(json.find("alpha"), json.find("zeta"));
}

TEST(MetricsTest, InstrumentReferencesAreStable) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x");
  Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(registry.counter("x").value(), 3u);
}

// ------------------------------------------------------------- manifest

TEST(ManifestTest, ParsesJobLines) {
  std::istringstream in(
      "# comment\n"
      "version 1\n"
      "\n"
      "job name=a input=a.tests dict=1024 char=7 entry=63 tiebreak=lookahead "
      "xassign=random seed=9 container=1 chunk=128 out=a.tdclzw\n"
      "job gen=itc_b09f dict=256 char=5 entry=35 variable\n");
  const Result<Manifest> parsed = parse_manifest(in, "/base");
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const Manifest& m = parsed.value();
  ASSERT_EQ(m.jobs.size(), 2u);

  const JobSpec& a = m.jobs[0];
  EXPECT_EQ(a.name, "a");
  EXPECT_EQ(a.input_path, "/base/a.tests");  // resolved against base_dir
  EXPECT_EQ(a.config.dict_size, 1024u);
  EXPECT_EQ(a.config.char_bits, 7u);
  EXPECT_EQ(a.config.entry_bits, 63u);
  EXPECT_EQ(a.tiebreak, lzw::Tiebreak::Lookahead);
  EXPECT_EQ(a.xassign, lzw::XAssignMode::RandomFill);
  EXPECT_EQ(a.rng_seed, 9u);
  EXPECT_EQ(a.container.version, 1u);
  EXPECT_EQ(a.container.chunk_bytes, 128u);
  EXPECT_EQ(a.output_path, "a.tdclzw");  // outputs stay relative

  const JobSpec& b = m.jobs[1];
  EXPECT_EQ(b.name, "job1");  // default name from position
  EXPECT_EQ(b.gen_circuit, "itc_b09f");
  EXPECT_TRUE(b.config.variable_width);
}

TEST(ManifestTest, RejectsBadInput) {
  const auto expect_error = [](const std::string& text, const std::string& needle) {
    std::istringstream in(text);
    const Result<Manifest> parsed = parse_manifest(in);
    ASSERT_FALSE(parsed.ok()) << "accepted: " << text;
    EXPECT_EQ(parsed.error().kind, ErrorKind::ConfigMismatch);
    EXPECT_NE(parsed.error().message.find(needle), std::string::npos)
        << parsed.error().message;
  };
  expect_error("version 2\n", "version");
  expect_error("jobs input=a.tests\n", "expected 'job'");
  expect_error("job dict=256\n", "exactly one");
  expect_error("job input=a gen=b dict=256\n", "exactly one");
  expect_error("job input=a tiebreak=best\n", "unknown tiebreak");
  expect_error("job input=a xassign=never\n", "unknown xassign");
  expect_error("job input=a container=3\n", "container must be 1 or 2");
  expect_error("job input=a chunk=32\n", "chunk must be 0 or >= 64");
  expect_error("job input=a wat=1\n", "unknown key");
  expect_error("job input=a bare\n", "unknown token");
  expect_error("job input=a name=\n", "empty value");
  expect_error("job name=x input=a\njob name=x input=b\n", "duplicate job name");
  // Numbers are digits only and must fit their field: nothing wraps to a
  // smaller value, and the dictionary cap is checked before anything runs.
  expect_error("job input=a dict=4294967552\n", "bad dict");
  expect_error("job input=a char=4294967301\n", "bad char");
  expect_error("job input=a entry=4294967327\n", "bad entry");
  expect_error("job input=a chunk=4294967360\n", "bad chunk");
  expect_error("job input=a seed=-1\n", "bad seed");
  expect_error("job input=a dict=+1024\n", "bad dict");
  expect_error("job input=a dict=2097152\n", "exceeds the 2^20 cap");
  expect_error("job input=a dict=4000000000\n", "exceeds the 2^20 cap");
  // The line number of the offending line is part of the message.
  expect_error("version 1\njob input=a\njob input=b container=9\n", "line 3");
}

TEST(ManifestTest, LoadReportsMissingFileAsIoError) {
  const Result<Manifest> r = load_manifest("/nonexistent/dir/batch.manifest");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, ErrorKind::IoError);
}

#ifdef TDC_SAMPLE_MANIFEST
// The shipped sample manifest stays parseable and keeps its advertised
// coverage: all five tiebreaks, both container versions.
TEST(ManifestTest, SampleManifestCoversTiebreaksAndContainers) {
  const Result<Manifest> parsed = load_manifest(TDC_SAMPLE_MANIFEST);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const Manifest& m = parsed.value();
  ASSERT_EQ(m.jobs.size(), 5u);

  std::set<lzw::Tiebreak> tiebreaks;
  std::set<std::uint32_t> versions;
  for (const JobSpec& job : m.jobs) {
    tiebreaks.insert(job.tiebreak);
    versions.insert(job.container.version);
    EXPECT_EQ(job.gen_circuit, "itc_b09f");
    EXPECT_FALSE(job.output_path.empty());
  }
  EXPECT_EQ(tiebreaks.size(), 5u);
  EXPECT_EQ(versions, (std::set<std::uint32_t>{1u, 2u}));
}
#endif

// --------------------------------------------------------------- engine

std::shared_ptr<const scan::TestSet> synthetic_tests(std::uint64_t seed,
                                                     std::size_t width = 4096) {
  bits::Rng rng(seed);
  auto tests = std::make_shared<scan::TestSet>();
  tests->circuit = "synthetic";
  tests->width = width;
  bits::TritVector cube(width);
  for (std::size_t i = 0; i < width; ++i) {
    if (!rng.chance(0.85)) {
      cube.set(i, rng.bit() ? bits::Trit::One : bits::Trit::Zero);
    }
  }
  tests->cubes.push_back(std::move(cube));
  return tests;
}

/// Ten inline jobs: each tiebreak against both container versions, a pinch
/// of xassign/variable variety. Containers stay in memory (no out=).
Manifest inline_manifest() {
  const lzw::Tiebreak tiebreaks[] = {
      lzw::Tiebreak::First, lzw::Tiebreak::LowestChar, lzw::Tiebreak::MostRecent,
      lzw::Tiebreak::MostChildren, lzw::Tiebreak::Lookahead};
  Manifest manifest;
  for (int i = 0; i < 10; ++i) {
    JobSpec spec;
    spec.name = "inline" + std::to_string(i);
    spec.inline_tests = synthetic_tests(100 + i);
    spec.config = lzw::LzwConfig{.dict_size = 256, .char_bits = 7, .entry_bits = 63};
    spec.config.variable_width = i % 3 == 0;
    spec.tiebreak = tiebreaks[i % 5];
    spec.xassign = i % 4 == 0 ? lzw::XAssignMode::ZeroFill : lzw::XAssignMode::Dynamic;
    spec.container.version = i % 2 == 0 ? 2u : 1u;
    manifest.jobs.push_back(std::move(spec));
  }
  return manifest;
}

BatchResult run_with_workers(const Manifest& manifest, unsigned workers) {
  EngineOptions options;
  options.workers = workers;
  Engine eng(options);
  return eng.run(manifest);
}

/// The determinism golden: the same manifest at 1, 3 and 8 workers commits
/// byte-identical containers, identical stats, and an identical report.
TEST(EngineTest, BatchIsByteIdenticalForAnyWorkerCount) {
  const Manifest manifest = inline_manifest();
  const BatchResult serial = run_with_workers(manifest, 1);
  ASSERT_EQ(serial.jobs.size(), manifest.jobs.size());
  ASSERT_EQ(serial.ok_count(), manifest.jobs.size());

  for (const unsigned workers : {3u, 8u}) {
    const BatchResult parallel = run_with_workers(manifest, workers);
    ASSERT_EQ(parallel.jobs.size(), serial.jobs.size());
    for (std::size_t i = 0; i < serial.jobs.size(); ++i) {
      const JobOutcome& a = serial.jobs[i];
      const JobOutcome& b = parallel.jobs[i];
      EXPECT_EQ(a.name, b.name);
      EXPECT_TRUE(b.status.ok()) << b.status.error().message;
      EXPECT_EQ(a.container, b.container) << "job " << a.name;  // byte-identical
      EXPECT_EQ(a.original_bits, b.original_bits);
      EXPECT_EQ(a.compressed_bits, b.compressed_bits);
      EXPECT_EQ(a.container_bytes, b.container_bytes);
      EXPECT_EQ(a.config_summary, b.config_summary);
    }
    EXPECT_EQ(serial.report(), parallel.report());
  }
}

/// More workers than jobs: the pool starts one thread per job, and the
/// batch commits exactly what a single worker commits.
TEST(EngineTest, MoreWorkersThanJobsCommitsTheSameBatch) {
  Manifest manifest = inline_manifest();
  manifest.jobs.resize(2);
  const BatchResult serial = run_with_workers(manifest, 1);
  const BatchResult wide = run_with_workers(manifest, 8);
  ASSERT_EQ(serial.ok_count(), 2u);
  ASSERT_EQ(wide.jobs.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(wide.jobs[i].container, serial.jobs[i].container);
  }
  EXPECT_EQ(wide.report(), serial.report());
}

TEST(EngineTest, EmptyManifestReturnsNoJobs) {
  MetricsRegistry registry;
  Engine eng(EngineOptions{.workers = 4}, &registry);
  const BatchResult result = eng.run(Manifest{});
  EXPECT_TRUE(result.jobs.empty());
  EXPECT_EQ(registry.counter("engine.runs").value(), 1u);
  EXPECT_EQ(registry.counter("engine.jobs").value(), 0u);
}

TEST(EngineTest, WritesOutputFilesIdenticallyForAnyWorkerCount) {
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() / "tdc_engine_test_out";
  fs::remove_all(root);

  Manifest manifest = inline_manifest();
  manifest.jobs.resize(4);
  for (std::size_t i = 0; i < manifest.jobs.size(); ++i) {
    manifest.jobs[i].output_path = manifest.jobs[i].name + ".tdclzw";
  }

  const auto run_into = [&manifest](const fs::path& dir, unsigned workers) {
    EngineOptions options;
    options.workers = workers;
    options.output_dir = dir.string();
    Engine eng(options);
    const BatchResult result = eng.run(manifest);
    EXPECT_EQ(result.ok_count(), manifest.jobs.size());
    return result;
  };
  run_into(root / "serial", 1);
  run_into(root / "parallel", 4);

  for (const JobSpec& job : manifest.jobs) {
    std::ifstream a(root / "serial" / job.output_path, std::ios::binary);
    std::ifstream b(root / "parallel" / job.output_path, std::ios::binary);
    ASSERT_TRUE(a && b) << job.output_path;
    const std::string bytes_a((std::istreambuf_iterator<char>(a)), {});
    const std::string bytes_b((std::istreambuf_iterator<char>(b)), {});
    EXPECT_FALSE(bytes_a.empty());
    EXPECT_EQ(bytes_a, bytes_b) << job.output_path;
  }
  fs::remove_all(root);
}

/// One corrupt and one missing input do not take the batch down: both jobs
/// fail typed, every other job commits normally.
TEST(EngineTest, IsolatesBadInputsFromTheRestOfTheBatch) {
  namespace fs = std::filesystem;
  const fs::path corrupt = fs::temp_directory_path() / "tdc_engine_corrupt.tests";
  {
    std::ofstream out(corrupt, std::ios::binary);
    out << "this is not a test-set file";
  }

  Manifest manifest = inline_manifest();
  manifest.jobs.resize(4);
  JobSpec missing;
  missing.name = "missing";
  missing.input_path = "/nonexistent/input.tests";
  missing.config = lzw::LzwConfig{.dict_size = 256, .char_bits = 7, .entry_bits = 63};
  manifest.jobs.insert(manifest.jobs.begin() + 1, std::move(missing));
  JobSpec garbage;
  garbage.name = "garbage";
  garbage.input_path = corrupt.string();
  garbage.config = lzw::LzwConfig{.dict_size = 256, .char_bits = 7, .entry_bits = 63};
  manifest.jobs.push_back(std::move(garbage));

  const BatchResult result = run_with_workers(manifest, 4);
  ASSERT_EQ(result.jobs.size(), 6u);
  EXPECT_EQ(result.ok_count(), 4u);
  EXPECT_EQ(result.failed_count(), 2u);
  EXPECT_EQ(result.cancelled_count(), 0u);

  EXPECT_FALSE(result.jobs[1].ok());
  EXPECT_EQ(result.jobs[1].status.error().kind, ErrorKind::IoError);
  EXPECT_FALSE(result.jobs[5].ok());
  for (const std::size_t i : {0u, 2u, 3u, 4u}) {
    EXPECT_TRUE(result.jobs[i].ok()) << result.jobs[i].status.error().message;
    EXPECT_FALSE(result.jobs[i].container.empty());
  }
  // The report renders every job, including the failed ones.
  const std::string report = result.report();
  EXPECT_NE(report.find("missing"), std::string::npos);
  EXPECT_NE(report.find("FAILED"), std::string::npos);
  fs::remove(corrupt);
}

/// A .tests file whose body disagrees with its header is the caller's data
/// at fault: the job fails InvalidInput (not the transport-class IoError
/// of a missing file), and every other job commits the bytes it commits in
/// a batch without the bad job.
TEST(EngineTest, MalformedTestsFileFailsAsInvalidInput) {
  namespace fs = std::filesystem;
  const fs::path short_file = fs::temp_directory_path() / "tdc_engine_count_mismatch.tests";
  {
    scan::TestSet tests = *synthetic_tests(42, 64);
    tests.cubes.push_back(tests.cubes.front());
    std::string text = scan::format_tests(tests);
    text.replace(text.find("patterns 2"), 10, "patterns 3");
    std::ofstream out(short_file, std::ios::binary);
    out << text;
  }

  Manifest clean = inline_manifest();
  clean.jobs.resize(5);
  Manifest manifest = clean;
  JobSpec bad;
  bad.name = "count_mismatch";
  bad.input_path = short_file.string();
  bad.config = lzw::LzwConfig{.dict_size = 256, .char_bits = 7, .entry_bits = 63};
  manifest.jobs.insert(manifest.jobs.begin() + 2, std::move(bad));

  const BatchResult reference = run_with_workers(clean, 2);
  const BatchResult result = run_with_workers(manifest, 2);
  ASSERT_EQ(result.jobs.size(), 6u);
  EXPECT_EQ(result.failed_count(), 1u);
  ASSERT_FALSE(result.jobs[2].ok());
  EXPECT_EQ(result.jobs[2].status.error().kind, ErrorKind::InvalidInput)
      << result.jobs[2].status.error().describe();
  EXPECT_NE(result.jobs[2].status.error().message.find("header declares 3 patterns, found 2"),
            std::string::npos);
  for (std::size_t i = 0; i < clean.jobs.size(); ++i) {
    const JobOutcome& job = result.jobs[i < 2 ? i : i + 1];
    ASSERT_TRUE(job.ok()) << job.name;
    EXPECT_EQ(job.container, reference.jobs[i].container) << job.name;
  }
  fs::remove(short_file);
}

TEST(EngineTest, FailFastCancelsPendingJobs) {
  Manifest manifest;
  JobSpec bad;
  bad.name = "bad";
  bad.input_path = "/nonexistent/input.tests";
  bad.config = lzw::LzwConfig{.dict_size = 256, .char_bits = 7, .entry_bits = 63};
  manifest.jobs.push_back(std::move(bad));
  for (int i = 0; i < 12; ++i) {
    JobSpec spec;
    spec.name = "ok" + std::to_string(i);
    spec.inline_tests = synthetic_tests(500 + i);
    spec.config = lzw::LzwConfig{.dict_size = 256, .char_bits = 7, .entry_bits = 63};
    manifest.jobs.push_back(std::move(spec));
  }

  EngineOptions options;
  options.workers = 1;
  options.fail_fast = true;
  Engine eng(options);
  const BatchResult result = eng.run(manifest);

  ASSERT_EQ(result.jobs.size(), manifest.jobs.size());
  EXPECT_EQ(result.failed_count(), 1u);
  EXPECT_FALSE(result.jobs[0].ok());
  // One worker runs the jobs in manifest order, so the load failure of job
  // 0 cancels every later job before it starts.
  EXPECT_EQ(result.cancelled_count(), 12u);
  EXPECT_EQ(result.ok_count(), 0u);
  for (std::size_t i = 1; i < result.jobs.size(); ++i) {
    EXPECT_TRUE(result.jobs[i].cancelled) << result.jobs[i].name;
    EXPECT_FALSE(result.jobs[i].ok());
  }
}

TEST(EngineTest, CommitCallbackFiresInManifestOrder) {
  const Manifest manifest = inline_manifest();
  EngineOptions options;
  options.workers = 4;
  Engine eng(options);
  std::vector<std::string> committed;
  const BatchResult result =
      eng.run(manifest, [&committed](const JobOutcome& job) {
        committed.push_back(job.name);
      });
  ASSERT_EQ(result.ok_count(), manifest.jobs.size());
  ASSERT_EQ(committed.size(), manifest.jobs.size());
  for (std::size_t i = 0; i < committed.size(); ++i) {
    EXPECT_EQ(committed[i], manifest.jobs[i].name);
  }
}

TEST(EngineTest, MetricsTrackTheBatch) {
  Manifest manifest = inline_manifest();
  manifest.jobs.resize(5);
  JobSpec bad;
  bad.name = "bad";
  bad.input_path = "/nonexistent/input.tests";
  bad.config = lzw::LzwConfig{.dict_size = 256, .char_bits = 7, .entry_bits = 63};
  manifest.jobs.push_back(std::move(bad));

  MetricsRegistry registry;
  Engine eng(EngineOptions{.workers = 2}, &registry);
  const BatchResult result = eng.run(manifest);
  EXPECT_EQ(result.ok_count(), 5u);
  EXPECT_EQ(result.failed_count(), 1u);

  EXPECT_EQ(registry.counter("engine.runs").value(), 1u);
  EXPECT_EQ(registry.counter("engine.jobs").value(), 6u);
  EXPECT_EQ(registry.counter("engine.ok").value(), 5u);
  EXPECT_EQ(registry.counter("engine.failed").value(), 1u);
  EXPECT_EQ(registry.counter("load.in").value(), 6u);
  EXPECT_EQ(registry.counter("load.fail").value(), 1u);
  EXPECT_EQ(registry.counter("encode.in").value(), 6u);
  EXPECT_EQ(registry.counter("encode.ok").value(), 5u);
  EXPECT_EQ(registry.counter("encode.skip").value(), 1u);  // failed job skips
  EXPECT_GT(registry.counter("encode.bits_in").value(), 0u);
  EXPECT_EQ(registry.histogram("encode.micros").snapshot().count, 5u);
  // The engine used the external registry, and its JSON names the stages.
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("\"verify.ok\": 5"), std::string::npos);
}

TEST(EngineTest, VerifyStageCanBeDisabled) {
  Manifest manifest = inline_manifest();
  manifest.jobs.resize(3);
  MetricsRegistry registry;
  EngineOptions options;
  options.workers = 2;
  options.verify = false;
  Engine eng(options, &registry);
  const BatchResult result = eng.run(manifest);
  EXPECT_EQ(result.ok_count(), 3u);
  EXPECT_EQ(registry.counter("verify.in").value(), 0u);
}

// -------------------------------------------------------------- JobRunner

/// Submits one spec and waits for its outcome — the synchronous shape every
/// JobRunner test needs.
JobOutcome run_one(JobRunner& runner, JobSpec spec) {
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  JobOutcome outcome;
  EXPECT_TRUE(runner.submit(std::move(spec), [&](JobOutcome o) {
    std::lock_guard lock(m);
    outcome = std::move(o);
    done = true;
    cv.notify_one();
  }));
  std::unique_lock lock(m);
  cv.wait(lock, [&] { return done; });
  return outcome;
}

TEST(JobRunnerTest, ProducesTheSameBytesAsABatchRun) {
  Manifest manifest = inline_manifest();
  manifest.jobs.resize(4);
  Engine eng(EngineOptions{.workers = 2});
  const BatchResult batch = eng.run(manifest);
  ASSERT_EQ(batch.ok_count(), 4u);

  JobRunner runner(JobRunner::Options{.workers = 2});
  for (std::size_t i = 0; i < manifest.jobs.size(); ++i) {
    const JobOutcome outcome = run_one(runner, manifest.jobs[i]);
    ASSERT_TRUE(outcome.ok()) << outcome.status.error().describe();
    // One-at-a-time submission through the persistent pool commits the very
    // bytes the batch engine committed — the service daemon's determinism
    // contract with the offline CLI.
    EXPECT_EQ(outcome.container, batch.jobs[i].container);
    EXPECT_EQ(outcome.config_summary, batch.jobs[i].config_summary);
  }
}

TEST(JobRunnerTest, KeepsFailuresTypedAndIsolated) {
  JobRunner runner(JobRunner::Options{.workers = 2});
  JobSpec bad;
  bad.name = "missing";
  bad.input_path = "/nonexistent/input.tests";
  const JobOutcome failed = run_one(runner, std::move(bad));
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.status.error().kind, ErrorKind::IoError);

  JobSpec good;
  good.name = "good";
  good.inline_tests = synthetic_tests(1);
  EXPECT_TRUE(run_one(runner, std::move(good)).ok());
  EXPECT_EQ(runner.metrics().counter("runner.failed").value(), 1u);
  EXPECT_EQ(runner.metrics().counter("runner.ok").value(), 1u);
}

TEST(JobRunnerTest, RefusesSubmissionsPastTheInFlightCap) {
  JobRunner runner(JobRunner::Options{.workers = 1, .max_in_flight = 1});
  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  // Occupy the single in-flight slot with a task that blocks until told.
  ASSERT_TRUE(runner.submit_task([&] {
    std::unique_lock lock(m);
    cv.wait(lock, [&] { return release; });
  }));
  EXPECT_EQ(runner.in_flight(), 1u);

  JobSpec spec;
  spec.name = "refused";
  spec.inline_tests = synthetic_tests(2);
  EXPECT_FALSE(runner.submit(std::move(spec), [](JobOutcome) {}));
  EXPECT_FALSE(runner.submit_task([] {}));
  EXPECT_EQ(runner.metrics().counter("runner.busy_rejects").value(), 2u);

  {
    std::lock_guard lock(m);
    release = true;
  }
  cv.notify_all();
  runner.drain();
  EXPECT_EQ(runner.in_flight(), 0u);
  // Capacity is available again after the drain.
  JobSpec retry;
  retry.name = "retry";
  retry.inline_tests = synthetic_tests(3);
  EXPECT_TRUE(run_one(runner, std::move(retry)).ok());
}

TEST(JobRunnerTest, PublishesLiveQueueStatsAsDeltas) {
  MetricsRegistry registry;
  JobRunner runner(JobRunner::Options{.workers = 2}, &registry);
  for (int i = 0; i < 3; ++i) {
    JobSpec spec;
    spec.name = "job" + std::to_string(i);
    spec.inline_tests = synthetic_tests(10 + static_cast<std::uint64_t>(i));
    ASSERT_TRUE(run_one(runner, std::move(spec)).ok());
  }
  runner.publish_queue_stats();
  const std::uint64_t pushes =
      registry.counter("queue.service.pushes").value();
  EXPECT_EQ(pushes, 3u);
  // A second publish with no new traffic adds a zero delta — the counters
  // are live monotonic views, not per-call re-exports.
  runner.publish_queue_stats();
  EXPECT_EQ(registry.counter("queue.service.pushes").value(), pushes);
  // New traffic shows up incrementally.
  JobSpec spec;
  spec.name = "late";
  spec.inline_tests = synthetic_tests(99);
  ASSERT_TRUE(run_one(runner, std::move(spec)).ok());
  runner.publish_queue_stats();
  EXPECT_EQ(registry.counter("queue.service.pushes").value(), pushes + 1);
}

TEST(JobRunnerTest, QueueDepthGaugeDrainsToZeroAfterStop) {
  MetricsRegistry registry;
  JobRunner runner(JobRunner::Options{.workers = 1}, &registry);
  for (int i = 0; i < 3; ++i) {
    JobSpec spec;
    spec.name = "depth" + std::to_string(i);
    spec.inline_tests = synthetic_tests(20 + static_cast<std::uint64_t>(i));
    ASSERT_TRUE(run_one(runner, std::move(spec)).ok());
  }
  runner.drain();
  runner.stop();
  runner.publish_queue_stats();
  // Everything submitted was consumed: the occupancy gauge reads zero after
  // the drain, while its high-watermark proves traffic actually queued.
  EXPECT_EQ(registry.gauge("queue.service.depth").value(), 0);
  EXPECT_GE(registry.gauge("queue.service.depth").peak(), 1);
  EXPECT_EQ(runner.queue_stats().depth, 0u);
  EXPECT_GE(runner.queue_stats().max_depth, 1u);
  EXPECT_EQ(runner.in_flight(), 0u);
}

/// submit_task racing stop(): a submission that stop() refuses after it was
/// admitted reports false, so every accepted task runs and the in-flight
/// count returns to zero (a later drain() must not block).
TEST(JobRunnerTest, SubmitRacingStopNeverDropsAnAcceptedTask) {
  constexpr int kSubmitters = 3;
  constexpr int kPerSubmitter = 200;
  for (int round = 0; round < 200; ++round) {
    JobRunner runner(JobRunner::Options{.workers = 2, .max_in_flight = 1024});
    std::atomic<int> accepted{0};
    std::atomic<int> ran{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&] {
        for (int i = 0; i < kPerSubmitter; ++i) {
          if (runner.submit_task([&ran] { ran.fetch_add(1); })) {
            accepted.fetch_add(1);
          }
        }
      });
    }
    runner.stop();
    for (std::thread& t : submitters) t.join();
    ASSERT_EQ(ran.load(), accepted.load()) << "round " << round;
    ASSERT_EQ(runner.in_flight(), 0u) << "round " << round;
    runner.drain();
  }
}

TEST(JobRunnerTest, StopDrainsQueuedWorkAndStaysIdempotent) {
  JobRunner runner(JobRunner::Options{.workers = 2});
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(runner.submit_task([&] { ++ran; }));
  }
  runner.stop();
  runner.stop();  // idempotent
  EXPECT_EQ(ran.load(), 4);  // queued tasks ran to completion, none dropped
  EXPECT_FALSE(runner.submit_task([] {}));  // stopped runners refuse work
}

}  // namespace
}  // namespace tdc::engine
