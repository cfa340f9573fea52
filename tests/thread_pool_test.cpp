// Tests for the parallel experiment flow: the fixed thread pool, the
// order-preserving parallel_map sweep primitive, and the --jobs / $TDC_JOBS
// resolution — including the determinism guarantee that a table built from
// a sweep is identical for any worker count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/flow.h"
#include "exp/table.h"
#include "exp/thread_pool.h"
#include "lzw/encoder.h"

namespace tdc::exp {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedJob) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(count.load(), 1);
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(count.load(), 2);
}

/// A job that throws must not kill the worker thread silently: the first
/// exception is captured and rethrown from wait(), after the queue drains.
TEST(ThreadPoolTest, WaitRethrowsFirstJobException) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  pool.submit([] { throw std::runtime_error("job exploded"); });
  for (int i = 0; i < 20; ++i) {
    pool.submit([&completed] { completed.fetch_add(1); });
  }
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The failure did not take the pool down: later jobs still run.
  EXPECT_EQ(completed.load(), 20);
  pool.submit([&completed] { completed.fetch_add(1); });
  pool.wait();  // error already consumed — no rethrow
  EXPECT_EQ(completed.load(), 21);
}

TEST(ThreadPoolTest, WaitRethrowsAtMostOnce) {
  ThreadPool pool(2);
  pool.submit([] { throw std::logic_error("once"); });
  EXPECT_THROW(pool.wait(), std::logic_error);
  pool.wait();  // second wait sees a clean pool
}

TEST(ThreadPoolTest, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&count] { count.fetch_add(1); });
  pool.shutdown();
  EXPECT_EQ(count.load(), 1);  // shutdown drains queued work first
  EXPECT_THROW(pool.submit([&count] { count.fetch_add(1); }),
               std::runtime_error);
  EXPECT_EQ(count.load(), 1);
  pool.shutdown();  // idempotent
}

TEST(ParallelMapTest, PreservesInputOrder) {
  ThreadPool pool(8);
  std::vector<int> items(200);
  std::iota(items.begin(), items.end(), 0);
  const auto out = parallel_map(pool, items, [](const int& v) { return 3 * v; });
  ASSERT_EQ(out.size(), items.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], 3 * static_cast<int>(i));
  }
}

/// The sweep-determinism property the table benches rely on: the same sweep
/// run at --jobs 1 and --jobs 8 renders the identical table.
TEST(ParallelMapTest, TableIdenticalForAnyWorkerCount) {
  const std::vector<std::uint32_t> entry_bits{35, 63, 127, 255};

  const auto sweep = [&entry_bits](unsigned jobs) {
    ThreadPool pool(jobs);
    const auto rows =
        parallel_map(pool, entry_bits, [](const std::uint32_t entry) {
          // Deterministic per-point work: a real encode, as in the benches.
          bits::TritVector input(2000, bits::Trit::X);
          for (std::size_t i = 0; i < input.size(); i += 3) {
            input.set(i, i % 2 == 0 ? bits::Trit::One : bits::Trit::Zero);
          }
          const lzw::LzwConfig config{.dict_size = 256, .char_bits = 5,
                                      .entry_bits = entry};
          const auto encoded = lzw::Encoder(config).encode(input);
          return std::vector<std::string>{
              num(entry), num(encoded.code_count),
              pct(encoded.ratio_percent())};
        });
    Table table({"C_MDATA", "codes", "ratio"});
    for (const auto& row : rows) table.add_row(row);
    return table.render();
  };

  const std::string serial = sweep(1);
  EXPECT_EQ(serial, sweep(8));
  EXPECT_EQ(serial, sweep(3));
}

TEST(SweepJobsTest, ParsesAndConsumesJobsArguments) {
  const char* raw[] = {"bench", "circuit", "--jobs", "5", "4096"};
  char* argv[5];
  for (int i = 0; i < 5; ++i) argv[i] = const_cast<char*>(raw[i]);
  int argc = 5;
  EXPECT_EQ(sweep_jobs(argc, argv), 5u);
  // Consumed: positional arguments close ranks.
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv[1], "circuit");
  EXPECT_STREQ(argv[2], "4096");
}

TEST(SweepJobsTest, ParsesEqualsAndShortForms) {
  {
    const char* raw[] = {"bench", "--jobs=7"};
    char* argv[2] = {const_cast<char*>(raw[0]), const_cast<char*>(raw[1])};
    int argc = 2;
    EXPECT_EQ(sweep_jobs(argc, argv), 7u);
    EXPECT_EQ(argc, 1);
  }
  {
    const char* raw[] = {"bench", "-j3"};
    char* argv[2] = {const_cast<char*>(raw[0]), const_cast<char*>(raw[1])};
    int argc = 2;
    EXPECT_EQ(sweep_jobs(argc, argv), 3u);
    EXPECT_EQ(argc, 1);
  }
}

TEST(SweepJobsTest, FallsBackToDefaultJobs) {
  const char* raw[] = {"bench"};
  char* argv[1] = {const_cast<char*>(raw[0])};
  int argc = 1;
  EXPECT_EQ(sweep_jobs(argc, argv), ThreadPool::default_jobs());
  EXPECT_GE(ThreadPool::default_jobs(), 1u);
}

}  // namespace
}  // namespace tdc::exp
