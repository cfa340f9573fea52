// Tests for the batch compression engine: the metrics registry, the
// manifest format, the engine itself — the jobs=1 vs jobs=N byte-identical
// determinism golden, per-job failure isolation, fail-fast cancellation,
// and in-order commit — and JobRunner's blocking calls, in-flight cap and
// stop().
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bits/rng.h"
#include "engine/engine.h"
#include "engine/manifest.h"
#include "obs/metrics.h"
#include "scan/testset.h"
#include "scan/testset_io.h"

namespace tdc::engine {
namespace {

// -------------------------------------------------------------- metrics

TEST(MetricsTest, CounterAccumulates) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(MetricsTest, HistogramSnapshotTracksRange) {
  obs::Histogram h;
  h.record(1);
  h.record(2);
  h.record(1000);
  const obs::Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.sum, 1003u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_DOUBLE_EQ(s.mean(), 1003.0 / 3.0);
}

TEST(MetricsTest, RegistryJsonIsDeterministicAndNamed) {
  obs::MetricsRegistry registry;
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
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.counter("x");
  obs::Counter& b = registry.counter("x");
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
  // A job must be storable, not only encodable: no container writer takes
  // C_MDATA past Table 5's 511-bit word.
  expect_error("job input=a entry=600\n", "511-bit cap");
  expect_error("job input=a variable=2\n", "variable must be 0 or 1");
  // The line number of the offending line is part of the message.
  expect_error("version 1\njob input=a\njob input=b container=9\n", "line 3");
}

/// The keys every front end shares go through set_job_param: the bare
/// manifest token `variable` is variable=1, a later value replaces an
/// earlier one, and keys only a manifest has are unknown there.
TEST(ManifestTest, SharedJobKeysSetTheSpec) {
  std::istringstream in(
      "job input=a variable\n"
      "job input=a variable=1 variable=0 dict=512 dict=256 codec=auto "
      "chunk_trits=512\n");
  const Result<Manifest> parsed = parse_manifest(in);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_TRUE(parsed.value().jobs[0].config.variable_width);
  const JobSpec& b = parsed.value().jobs[1];
  EXPECT_FALSE(b.config.variable_width);
  EXPECT_EQ(b.config.dict_size, 256u);
  EXPECT_EQ(b.codec, "auto");
  EXPECT_EQ(b.chunk_trits, 512u);
  EXPECT_TRUE(check_job(b).ok());

  JobSpec spec;
  for (const char* key : {"name", "input", "gen", "out", "tiebreak", "xassign", "seed"}) {
    const Status s = set_job_param(spec, key, "1");
    ASSERT_FALSE(s.ok()) << key;
    EXPECT_EQ(s.error().kind, ErrorKind::ConfigMismatch);
    EXPECT_EQ(s.error().message, std::string("unknown key '") + key + "'");
  }
  const Status empty = set_job_param(spec, "dict", "");
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.error().message, "empty value for 'dict'");
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

/// synthetic_tests' scan stream, as a job's inline input.
std::shared_ptr<const bits::TritVector> synthetic_stream(std::uint64_t seed) {
  return std::make_shared<const bits::TritVector>(synthetic_tests(seed)->serialize());
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
    spec.inline_stream = synthetic_stream(100 + i);
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

/// The outcome carries what `tdc_cli compress` prints and --stats writes:
/// the LZW job's code count and encoder telemetry, the codec job's chunk
/// choices, equal to what the encoder and the selector report on their own.
TEST(EngineTest, OutcomeCarriesTheEncodeReport) {
  Manifest manifest;
  for (const char* codec : {"", "auto"}) {
    JobSpec& spec = manifest.jobs.emplace_back();
    spec.name = codec;
    spec.inline_stream = synthetic_stream(7);
    spec.config.dict_size = 256;
    spec.codec = codec;
    spec.chunk_trits = *codec != '\0' ? 512 : 0;
  }
  const BatchResult result = run_with_workers(manifest, 2);
  ASSERT_EQ(result.ok_count(), 2u);
  const bits::TritVector& stream = *manifest.jobs[0].inline_stream;

  const lzw::EncodeResult encoded = lzw::Encoder(manifest.jobs[0].config).encode(stream);
  const JobOutcome& lzw_job = result.jobs[0];
  EXPECT_EQ(lzw_job.code_count, encoded.code_count);
  EXPECT_EQ(lzw_job.telemetry.to_json(), encoded.telemetry.to_json());
  EXPECT_TRUE(lzw_job.choices.empty());

  codec::SelectOptions options = codec::parse_codec_mode("auto").value();
  options.lzw = manifest.jobs[1].config;
  options.chunk_trits = 512;
  const codec::EncodedChunks chunks = codec::encode_chunks(stream, options).value();
  const JobOutcome& codec_job = result.jobs[1];
  ASSERT_EQ(codec_job.choices.size(), chunks.choices.size());
  ASSERT_GT(codec_job.choices.size(), 1u);
  for (std::size_t i = 0; i < chunks.choices.size(); ++i) {
    EXPECT_EQ(codec_job.choices[i].codec, chunks.choices[i].codec);
    EXPECT_EQ(codec_job.choices[i].trits, chunks.choices[i].trits);
    EXPECT_EQ(codec_job.choices[i].stats_bits, chunks.choices[i].stats_bits);
    EXPECT_EQ(codec_job.choices[i].payload_bytes, chunks.choices[i].payload_bytes);
  }
  EXPECT_EQ(codec_job.compressed_bits, chunks.stats_bits);
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
  obs::MetricsRegistry registry;
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
    spec.inline_stream = synthetic_stream(500 + i);
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

  obs::MetricsRegistry registry;
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
  obs::MetricsRegistry registry;
  EngineOptions options;
  options.workers = 2;
  options.verify = false;
  Engine eng(options, &registry);
  const BatchResult result = eng.run(manifest);
  EXPECT_EQ(result.ok_count(), 3u);
  EXPECT_EQ(registry.counter("verify.in").value(), 0u);
}

// -------------------------------------------------------------- JobRunner

/// Runs one job, expecting the runner to admit it.
JobOutcome run_one(JobRunner& runner, JobSpec spec) {
  std::optional<JobOutcome> outcome = runner.run(std::move(spec));
  EXPECT_TRUE(outcome.has_value());
  return outcome ? std::move(*outcome) : JobOutcome{};
}

/// Closed until open(): a closure that waits on it keeps its call admitted
/// while the test probes the runner.
class Gate {
 public:
  void wait() {
    std::unique_lock lock(m_);
    cv_.wait(lock, [&] { return open_; });
  }
  void open() {
    {
      std::lock_guard lock(m_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  bool open_ = false;
};

void wait_for_in_flight(const JobRunner& runner, std::size_t n) {
  while (runner.in_flight() != n) std::this_thread::yield();
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
    // One call at a time through the persistent pool commits the very
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
  good.inline_stream = synthetic_stream(1);
  EXPECT_TRUE(run_one(runner, std::move(good)).ok());
  EXPECT_EQ(runner.metrics().counter("runner.failed").value(), 1u);
  EXPECT_EQ(runner.metrics().counter("runner.ok").value(), 1u);
}

TEST(JobRunnerTest, RefusesSubmissionsPastTheInFlightCap) {
  JobRunner runner(JobRunner::Options{.workers = 1, .max_in_flight = 1});
  Gate gate;
  // Occupy the single in-flight slot with a call that blocks until told.
  std::thread holder([&] { EXPECT_TRUE(runner.run_task([&] { gate.wait(); })); });
  wait_for_in_flight(runner, 1);
  EXPECT_EQ(runner.in_flight(), 1u);

  JobSpec spec;
  spec.name = "refused";
  spec.inline_stream = synthetic_stream(2);
  EXPECT_FALSE(runner.run(std::move(spec)).has_value());
  EXPECT_FALSE(runner.run_task([] {}));
  EXPECT_EQ(runner.metrics().counter("runner.busy_rejects").value(), 2u);

  gate.open();
  holder.join();
  EXPECT_EQ(runner.in_flight(), 0u);
  // Capacity is available again once the call has returned.
  JobSpec retry;
  retry.name = "retry";
  retry.inline_stream = synthetic_stream(3);
  EXPECT_TRUE(run_one(runner, std::move(retry)).ok());
}

TEST(JobRunnerTest, InFlightGaugeSettlesAtZeroWithPeakAtTheCap) {
  constexpr std::size_t kCap = 3;
  obs::MetricsRegistry registry;
  JobRunner runner(JobRunner::Options{.workers = 2, .max_in_flight = kCap},
                   &registry);
  Gate gate;
  // Two calls hold both pool threads, the third waits for one: all three
  // are admitted, so the cap is full.
  std::vector<std::thread> callers;
  for (std::size_t i = 0; i < kCap; ++i) {
    callers.emplace_back(
        [&] { EXPECT_TRUE(runner.run_task([&] { gate.wait(); })); });
  }
  wait_for_in_flight(runner, kCap);
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(runner.run_task([] {}));
  JobSpec spec;
  spec.name = "refused";
  spec.inline_stream = synthetic_stream(4);
  EXPECT_FALSE(runner.run(std::move(spec)).has_value());
  EXPECT_EQ(registry.counter("runner.busy_rejects").value(), 5u);
  EXPECT_EQ(registry.gauge("runner.in_flight").value(),
            static_cast<std::int64_t>(kCap));

  gate.open();
  for (std::thread& t : callers) t.join();
  // Every admitted call has returned: the level is back at zero, and the
  // peak records the burst that filled the cap — never more, since
  // refused calls are never counted in flight.
  EXPECT_EQ(registry.gauge("runner.in_flight").value(), 0);
  EXPECT_EQ(registry.gauge("runner.in_flight").peak(),
            static_cast<std::int64_t>(kCap));
  EXPECT_EQ(registry.counter("runner.tasks").value(), kCap);
  EXPECT_EQ(runner.in_flight(), 0u);
}

/// run_task racing stop(): every call stop() admitted has run when it
/// returns true, every other call is refused, and the in-flight count
/// returns to zero (a second stop() must not block).
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
          if (runner.run_task([&ran] { ran.fetch_add(1); })) {
            accepted.fetch_add(1);
          }
        }
      });
    }
    runner.stop();
    for (std::thread& t : submitters) t.join();
    ASSERT_EQ(ran.load(), accepted.load()) << "round " << round;
    ASSERT_EQ(runner.in_flight(), 0u) << "round " << round;
    runner.stop();
  }
}

TEST(JobRunnerTest, StopDrainsQueuedWorkAndStaysIdempotent) {
  constexpr int kCallers = 4;
  // Two pool threads, four blocked callers: two calls run, two wait.
  JobRunner runner(JobRunner::Options{.workers = 2, .max_in_flight = 8});
  Gate gate;
  std::atomic<int> ran{0};
  std::vector<std::thread> callers;
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back([&] {
      EXPECT_TRUE(runner.run_task([&] {
        gate.wait();
        ran.fetch_add(1);
      }));
    });
  }
  wait_for_in_flight(runner, kCallers);

  // stop() from another thread must wait for every admitted call.
  std::atomic<int> ran_when_stopped{-1};
  std::thread stopper([&] {
    runner.stop();
    ran_when_stopped.store(ran.load());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(ran_when_stopped.load(), -1);  // still waiting on the callers

  gate.open();
  for (std::thread& t : callers) t.join();
  stopper.join();
  EXPECT_EQ(ran_when_stopped.load(), kCallers);  // none dropped
  EXPECT_EQ(ran.load(), kCallers);

  runner.stop();  // idempotent
  EXPECT_FALSE(runner.run_task([] {}));  // stopped runners refuse work
  JobSpec spec;
  spec.name = "late";
  spec.inline_stream = synthetic_stream(5);
  EXPECT_FALSE(runner.run(std::move(spec)).has_value());
  EXPECT_EQ(runner.in_flight(), 0u);
}

TEST(JobRunnerTest, BodiesRunOnTheCallersThread) {
  JobRunner runner(JobRunner::Options{.workers = 2});
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  EXPECT_TRUE(runner.run_task([&] { ran_on = std::this_thread::get_id(); }));
  EXPECT_EQ(ran_on, caller);

  std::thread::id other_caller;
  std::thread::id other_ran_on;
  std::thread t([&] {
    other_caller = std::this_thread::get_id();
    EXPECT_TRUE(runner.run_task([&] { other_ran_on = std::this_thread::get_id(); }));
  });
  t.join();
  EXPECT_EQ(other_ran_on, other_caller);
  EXPECT_NE(other_ran_on, caller);
}

TEST(JobRunnerTest, RunningCapBoundsBodiesInsideAtOnce) {
  constexpr std::size_t kWorkers = 2;
  constexpr std::size_t kCap = 4;
  JobRunner runner(JobRunner::Options{.workers = kWorkers, .max_in_flight = kCap});
  Gate gate;
  std::atomic<int> inside{0};
  std::atomic<int> peak{0};
  std::atomic<int> entered{0};
  std::vector<std::thread> callers;
  for (std::size_t i = 0; i < kCap; ++i) {
    callers.emplace_back([&] {
      EXPECT_TRUE(runner.run_task([&] {
        const int now = inside.fetch_add(1) + 1;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        entered.fetch_add(1);
        gate.wait();
        inside.fetch_sub(1);
      }));
    });
  }
  // All four are admitted; two bodies are inside and two callers wait for
  // a running slot.
  wait_for_in_flight(runner, kCap);
  while (entered.load() < static_cast<int>(kWorkers)) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(inside.load(), static_cast<int>(kWorkers));
  EXPECT_EQ(entered.load(), static_cast<int>(kWorkers));

  // A fifth call is past the admission cap.
  EXPECT_FALSE(runner.run_task([] {}));
  EXPECT_EQ(runner.metrics().counter("runner.busy_rejects").value(), 1u);

  gate.open();
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(entered.load(), static_cast<int>(kCap));
  EXPECT_EQ(peak.load(), static_cast<int>(kWorkers));
  EXPECT_EQ(runner.in_flight(), 0u);
}

}  // namespace
}  // namespace tdc::engine
