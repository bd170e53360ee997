// Bounded MPMC queue connecting producers (submit) to the engine's worker
// pool.
//
// Deliberately a mutex + two condition variables rather than a lock-free
// ring: one labeling job costs tens of microseconds to millions of cycles,
// so queue transfer is never the bottleneck, and the blocking push is what
// implements the engine's backpressure contract (DESIGN.md §4) — when all
// workers are busy and the queue is full, producers wait instead of
// growing an unbounded backlog.
//
// Shutdown protocol: close() wakes everyone; subsequent push() calls fail
// fast (return false), while pop() keeps draining queued items and only
// returns nullopt once the queue is empty. That drain-then-stop order is
// what lets the engine guarantee every accepted job's future completes.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "common/contracts.hpp"

namespace paremsp::engine {

/// Bounded blocking multi-producer multi-consumer queue.
template <class T>
class JobQueue {
 public:
  explicit JobQueue(std::size_t capacity) : capacity_(capacity) {
    PAREMSP_REQUIRE(capacity > 0, "queue capacity must be positive");
  }

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Enqueue `item`, blocking while the queue is full (backpressure).
  /// Returns false — without enqueuing — once the queue is closed.
  [[nodiscard]] bool push(T&& item) {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock,
                   [this] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    high_water_ = std::max(high_water_, items_.size());
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Enqueue `item` without waiting for capacity; only fails (returns
  /// false) once the queue is closed. Reserved for jobs the WORKERS
  /// themselves spawn (fork-join helpers, stream continuations): a worker
  /// blocking in push() while every other worker also blocks would
  /// deadlock the pool, so internal fan-out must bypass the capacity
  /// wait. External producers keep the bounded push() above — that is
  /// the backpressure contract — and the overflow stays bounded by the
  /// fan-out of the jobs already accepted.
  [[nodiscard]] bool push_unbounded(T&& item) {
    {
      std::lock_guard lock(mutex_);
      if (closed_) return false;
      items_.push_back(std::move(item));
      high_water_ = std::max(high_water_, items_.size());
    }
    not_empty_.notify_one();
    return true;
  }

  /// Dequeue one item, blocking while the queue is empty. After close(),
  /// keeps returning queued items until drained, then nullopt forever.
  [[nodiscard]] std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;  // closed and drained
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Stop accepting pushes and wake all waiters. Idempotent.
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock(mutex_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mutex_);
    return items_.size();
  }

  /// Deepest the queue has ever been (tracked under the existing push
  /// lock, so it costs one max per enqueue). The engine exposes it via
  /// EngineStatsSnapshot::queue_high_water — a full-capacity high-water
  /// with low mean depth means bursty producers, sustained high depth
  /// means the pool is undersized.
  [[nodiscard]] std::size_t high_water() const {
    std::lock_guard lock(mutex_);
    return high_water_;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  std::size_t high_water_ = 0;
  bool closed_ = false;
};

}  // namespace paremsp::engine
