#ifndef TDC_EXP_THREAD_POOL_H
#define TDC_EXP_THREAD_POOL_H

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/thread_safety.h"

namespace tdc::exp {

/// Fixed-size worker pool: plain std::thread plus a mutex/condvar queue, no
/// external dependencies. It is the project's one pool: the batch engine
/// runs a task per manifest job on it (`tdc_cli batch` and
/// `tdc_cli compress`), and the experiment flow fans independent (circuit,
/// config) sweep points out across it; tdcd computes each request on its
/// connection thread instead. Result ordering is the caller's job
/// (see parallel_map, which collects by submission index so output is
/// deterministic for any worker count).
///
/// Concurrency contract (docs/ALGORITHMS.md §16): queue_, first_error_,
/// in_flight_ and stopping_ are TDC_GUARDED_BY(mutex_); workers_ is only
/// touched by the constructor and shutdown(), which the caller serializes.
class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means default_jobs().
  explicit ThreadPool(unsigned threads = 0);

  /// Drains outstanding work, then joins the workers (via shutdown()).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned thread_count() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueues one job. A job that throws does not take the process down:
  /// the first exception is captured and rethrown from the next wait()
  /// (subsequent ones are dropped — a sweep has no use for more than one
  /// failure). Throws std::runtime_error if the pool has been shut down.
  void submit(std::function<void()> job) TDC_EXCLUDES(mutex_);

  /// Blocks until every submitted job has finished, then rethrows the first
  /// exception any job raised since the previous wait() (if one did).
  void wait() TDC_EXCLUDES(mutex_);

  /// Drains outstanding work and joins the workers. Idempotent; after it
  /// returns, submit() throws. Called by the destructor, which additionally
  /// swallows any still-unclaimed job exception (destructors must not throw).
  void shutdown() TDC_EXCLUDES(mutex_);

  /// Worker count when none is requested: $TDC_JOBS if set and positive,
  /// else hardware_concurrency() (at least 1).
  static unsigned default_jobs();

 private:
  void worker_loop() TDC_EXCLUDES(mutex_);

  core::Mutex mutex_;
  core::CondVar work_ready_;
  core::CondVar all_done_;
  std::deque<std::function<void()>> queue_ TDC_GUARDED_BY(mutex_);
  std::vector<std::thread> workers_;
  std::exception_ptr first_error_ TDC_GUARDED_BY(mutex_);
  std::size_t in_flight_ TDC_GUARDED_BY(mutex_) = 0;
  bool stopping_ TDC_GUARDED_BY(mutex_) = false;
};

/// Applies `fn` to every element of `items` across the pool and returns the
/// results in input order — the parallel sweep primitive. Completion order
/// never leaks into the output, so a table built from the returned vector is
/// identical for --jobs 1 and --jobs 8.
template <typename T, typename Fn>
auto parallel_map(ThreadPool& pool, const std::vector<T>& items, Fn fn)
    -> std::vector<std::invoke_result_t<Fn&, const T&>> {
  using R = std::invoke_result_t<Fn&, const T&>;
  std::vector<R> results(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    pool.submit([&results, &items, &fn, i] { results[i] = fn(items[i]); });
  }
  pool.wait();
  return results;
}

}  // namespace tdc::exp

#endif  // TDC_EXP_THREAD_POOL_H
