// Concurrency stress for the batch engine, built to run under
// ThreadSanitizer (the CI tsan job executes exactly this binary): many
// small jobs at high worker counts, so every commit crosses the
// slot/condition-variable hand-off from a pool thread to the committing
// thread, with failures mixed in, repeated enough times to shake out rare
// interleavings.
//
// Assertions here are intentionally coarse — counts and determinism, not
// ratios — because the point is the absence of data races, deadlocks and
// lost jobs, not compression quality.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bits/rng.h"
#include "bits/tritvector.h"
#include "engine/engine.h"
#include "engine/manifest.h"

namespace tdc::engine {
namespace {

std::shared_ptr<const bits::TritVector> tiny_stream(std::uint64_t seed) {
  bits::Rng rng(seed);
  auto stream = std::make_shared<bits::TritVector>(512);
  for (std::size_t i = 0; i < 512; ++i) {
    if (!rng.chance(0.8)) {
      stream->set(i, rng.bit() ? bits::Trit::One : bits::Trit::Zero);
    }
  }
  return stream;
}

/// Worker count under test: $TDC_JOBS if set (the CI job exports 8), else 8
/// — oversubscribed on any small host.
unsigned stress_workers() {
  if (const char* env = std::getenv("TDC_JOBS"); env != nullptr && *env != '\0') {
    const int n = std::atoi(env);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return 8;
}

Manifest stress_manifest(std::size_t jobs, bool with_failures) {
  const lzw::Tiebreak tiebreaks[] = {
      lzw::Tiebreak::First, lzw::Tiebreak::LowestChar, lzw::Tiebreak::MostRecent,
      lzw::Tiebreak::MostChildren, lzw::Tiebreak::Lookahead};
  Manifest manifest;
  for (std::size_t i = 0; i < jobs; ++i) {
    JobSpec spec;
    spec.name = "s";
    spec.name += std::to_string(i);
    spec.config = lzw::LzwConfig{.dict_size = 128, .char_bits = 5, .entry_bits = 35};
    spec.tiebreak = tiebreaks[i % 5];
    spec.container.version = i % 2 == 0 ? 2u : 1u;
    if (with_failures && i % 7 == 3) {
      spec.input_path = "/nonexistent/stress.tests";  // fails in load
    } else {
      spec.inline_stream = tiny_stream(0xBEEF + i);
    }
    manifest.jobs.push_back(std::move(spec));
  }
  return manifest;
}

// 64 tiny jobs on an oversubscribed pool: every job commits, every round.
TEST(EngineStressTest, SaturatedTinyQueuesLoseNoJobs) {
  const Manifest manifest = stress_manifest(64, /*with_failures=*/false);
  EngineOptions options;
  options.workers = stress_workers();
  for (int round = 0; round < 3; ++round) {
    Engine eng(options);
    const BatchResult result = eng.run(manifest);
    ASSERT_EQ(result.jobs.size(), manifest.jobs.size());
    EXPECT_EQ(result.ok_count(), manifest.jobs.size());
    EXPECT_EQ(eng.metrics().counter("commit.ok").value(), manifest.jobs.size());
  }
}

TEST(EngineStressTest, MixedFailuresStayIsolatedUnderContention) {
  const Manifest manifest = stress_manifest(64, /*with_failures=*/true);
  std::size_t expected_failures = 0;
  for (const JobSpec& job : manifest.jobs) {
    if (!job.input_path.empty()) ++expected_failures;
  }
  ASSERT_GT(expected_failures, 0u);

  EngineOptions options;
  options.workers = stress_workers();
  std::string first_report;
  for (int round = 0; round < 3; ++round) {
    Engine eng(options);
    const BatchResult result = eng.run(manifest);
    ASSERT_EQ(result.jobs.size(), manifest.jobs.size());
    EXPECT_EQ(result.failed_count(), expected_failures);
    EXPECT_EQ(result.ok_count(), manifest.jobs.size() - expected_failures);
    // Deterministic commit: every round renders the identical report.
    if (round == 0) {
      first_report = result.report();
    } else {
      EXPECT_EQ(result.report(), first_report);
    }
  }
}

TEST(EngineStressTest, FailFastRacesResolveCleanly) {
  Manifest manifest = stress_manifest(48, /*with_failures=*/true);
  EngineOptions options;
  options.workers = stress_workers();
  options.fail_fast = true;
  for (int round = 0; round < 3; ++round) {
    Engine eng(options);
    const BatchResult result = eng.run(manifest);
    ASSERT_EQ(result.jobs.size(), manifest.jobs.size());
    // Which jobs were already in flight at first failure varies by
    // interleaving; the accounting invariants must not.
    EXPECT_GE(result.failed_count(), 1u);
    EXPECT_EQ(result.ok_count() + result.failed_count() + result.cancelled_count(),
              result.jobs.size());
  }
}

}  // namespace
}  // namespace tdc::engine
