#ifndef TDC_EXP_BOUNDED_QUEUE_H
#define TDC_EXP_BOUNDED_QUEUE_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>

#include "core/thread_safety.h"

namespace tdc::exp {

/// Contention counters of one BoundedQueue, readable at any time via
/// stats(). Blocked counts tally waits that actually slept (a push or pop
/// that found room/items ready costs no clock read at all); the micros
/// fields accumulate the wall time spent asleep. notifies_sent/skipped
/// record the wakeup discipline's work: a skip is a transfer that found
/// nobody waiting on the other side and so issued no notify at all.
struct BoundedQueueStats {
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  std::uint64_t push_blocked = 0;
  std::uint64_t pop_blocked = 0;
  std::uint64_t push_blocked_micros = 0;
  std::uint64_t pop_blocked_micros = 0;
  std::uint64_t notifies_sent = 0;
  std::uint64_t notifies_skipped = 0;
  /// Occupancy levels, not event counts: depth is the queue's size at the
  /// stats() call, max_depth the deepest it has ever been (folded on every
  /// push under the queue lock) — the pair a `queue.<name>.depth` gauge
  /// exports as value + high-watermark.
  std::uint64_t depth = 0;
  std::uint64_t max_depth = 0;

  std::uint64_t blocked_micros() const {
    return push_blocked_micros + pop_blocked_micros;
  }
};

/// Bounded multi-producer / multi-consumer queue — the submission queue of
/// engine::JobRunner. A full queue blocks producers instead of buffering
/// unboundedly, so a slow consumer throttles its producers and queued
/// memory stays proportional to `capacity`.
///
/// Lifecycle: producers push() until close(); consumers pop() until it
/// returns nullopt, which means closed *and* drained — items enqueued before
/// close() are always delivered. close() is idempotent and safe to call
/// concurrently with push/pop.
///
/// Wakeup discipline: waiting producers/consumers are counted under the
/// lock, and a push/pop only issues notify_one when a waiter of the right
/// kind exists — the common uncontended hand-off costs zero futex calls.
/// This cannot lose a wakeup: a thread can only start waiting while holding
/// the mutex, after re-checking the predicate the notifier just made true.
///
/// Concurrency contract (docs/ALGORITHMS.md §16): every mutable field is
/// TDC_GUARDED_BY(mutex_); the clang thread-safety job proves no access
/// escapes the lock.
template <typename T>
class BoundedQueue {
 public:
  using Stats = BoundedQueueStats;

  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  std::size_t capacity() const { return capacity_; }

  /// Blocks while the queue is full. Returns false (dropping `item`) if the
  /// queue was closed before space became available.
  bool push(T item) TDC_EXCLUDES(mutex_) {
    bool wake = false;
    {
      core::MutexLock lock(mutex_);
      wait_not_full(lock);
      if (closed_) return false;
      items_.push_back(std::move(item));
      ++stats_.pushes;
      fold_max_depth();
      wake = must_wake(waiting_consumers_);
    }
    if (wake) not_empty_.notify_one();
    return true;
  }

  /// Blocks while the queue is empty. nullopt once closed and drained.
  std::optional<T> pop() TDC_EXCLUDES(mutex_) {
    std::optional<T> item;
    bool wake = false;
    {
      core::MutexLock lock(mutex_);
      wait_not_empty(lock);
      if (items_.empty()) return std::nullopt;  // closed_ with a drained queue
      item = std::move(items_.front());
      items_.pop_front();
      ++stats_.pops;
      wake = must_wake(waiting_producers_);
    }
    if (wake) not_full_.notify_one();
    return item;
  }

  /// No more pushes will be accepted; consumers drain what is queued and
  /// then see nullopt. Wakes every blocked producer and consumer.
  void close() TDC_EXCLUDES(mutex_) {
    {
      core::MutexLock lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  /// Instantaneous depth (monitoring only — stale the moment it returns).
  std::size_t size() const TDC_EXCLUDES(mutex_) {
    core::MutexLock lock(mutex_);
    return items_.size();
  }

  /// Copy of the contention counters (consistent under the queue lock).
  /// depth is stamped here — it is the live occupancy, not an accumulator.
  Stats stats() const TDC_EXCLUDES(mutex_) {
    core::MutexLock lock(mutex_);
    Stats copy = stats_;
    copy.depth = items_.size();
    return copy;
  }

 private:
  using Clock = std::chrono::steady_clock;

  void wait_not_full(core::MutexLock& lock) TDC_REQUIRES(mutex_) {
    if (closed_ || items_.size() < capacity_) return;
    ++stats_.push_blocked;
    const Clock::time_point start = Clock::now();
    ++waiting_producers_;
    while (!closed_ && items_.size() >= capacity_) not_full_.wait(lock);
    --waiting_producers_;
    stats_.push_blocked_micros += blocked_micros_since(start);
  }

  void wait_not_empty(core::MutexLock& lock) TDC_REQUIRES(mutex_) {
    if (closed_ || !items_.empty()) return;
    ++stats_.pop_blocked;
    const Clock::time_point start = Clock::now();
    ++waiting_consumers_;
    while (!closed_ && items_.empty()) not_empty_.wait(lock);
    --waiting_consumers_;
    stats_.pop_blocked_micros += blocked_micros_since(start);
  }

  static std::uint64_t blocked_micros_since(Clock::time_point start) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              start)
            .count());
  }

  /// Folds the current occupancy into the high-watermark.
  void fold_max_depth() TDC_REQUIRES(mutex_) {
    if (items_.size() > stats_.max_depth) stats_.max_depth = items_.size();
  }

  /// Whether a transfer must notify one of `waiters` sleepers on the other
  /// side (counts the decision either way).
  bool must_wake(std::size_t waiters) TDC_REQUIRES(mutex_) {
    if (waiters == 0) {
      ++stats_.notifies_skipped;
      return false;
    }
    ++stats_.notifies_sent;
    return true;
  }

  mutable core::Mutex mutex_;
  core::CondVar not_full_;
  core::CondVar not_empty_;
  std::deque<T> items_ TDC_GUARDED_BY(mutex_);
  const std::size_t capacity_;
  std::size_t waiting_producers_ TDC_GUARDED_BY(mutex_) = 0;
  std::size_t waiting_consumers_ TDC_GUARDED_BY(mutex_) = 0;
  Stats stats_ TDC_GUARDED_BY(mutex_);
  bool closed_ TDC_GUARDED_BY(mutex_) = false;
};

}  // namespace tdc::exp

#endif  // TDC_EXP_BOUNDED_QUEUE_H
