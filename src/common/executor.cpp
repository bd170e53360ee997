#include "common/executor.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/env.hpp"
#include "engine/job_queue.hpp"
#include "obs/trace.hpp"

namespace paremsp {

namespace {

thread_local Executor* t_pool = nullptr;

/// Shared state of one fanned-out loop. Helpers hold it by shared_ptr, so
/// a helper that starts after the caller returned still finds it alive —
/// and finds no piece left, so it never touches the caller's `fn`.
struct Loop {
  Loop(std::size_t pieces, void (*call_fn)(void*, std::size_t), void* fn_ptr)
      : n(pieces), call(call_fn), fn(fn_ptr) {}

  /// Claim and run pieces until none are left.
  void run_pieces() noexcept {
    for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
      if (!failed.load(std::memory_order_relaxed)) {
        try {
          call(fn, i);
        } catch (...) {
          if (!failed.exchange(true, std::memory_order_relaxed)) {
            error = std::current_exception();
          }
        }
      }
      // acq_rel: the caller's acquire of the final count sees every
      // piece's writes (and `error`).
      if (finished.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        const std::lock_guard lock(mutex);
        done.notify_all();
      }
    }
  }

  const std::size_t n;
  void (*const call)(void*, std::size_t);
  void* const fn;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> finished{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex mutex;
  std::condition_variable done;
};

Executor& process_pool() {
  static ThreadPool pool(std::max(1, hardware_threads() - 1));
  return pool;
}

}  // namespace

PoolThreadScope::PoolThreadScope(Executor& pool) noexcept
    : previous_(std::exchange(t_pool, &pool)) {}

PoolThreadScope::~PoolThreadScope() { t_pool = previous_; }

struct ThreadPool::State final {
  // Capacity only bounds the bounded push(), which the pool never uses:
  // helpers are posted with push_unbounded so a poster never blocks.
  engine::JobQueue<std::function<void()>> queue{1};
  std::vector<std::thread> threads;
};

ThreadPool::ThreadPool(int threads) : state_(std::make_unique<State>()) {
  PAREMSP_REQUIRE(threads >= 1, "a thread pool needs at least one thread");
  state_->threads.reserve(static_cast<std::size_t>(threads));
  try {
    for (int i = 0; i < threads; ++i) {
      state_->threads.emplace_back([this, i] {
        obs::set_thread_name("pool-" + std::to_string(i));
        const PoolThreadScope scope(*this);
        while (auto helper = state_->queue.pop()) (*helper)();
      });
    }
  } catch (...) {
    state_->queue.close();
    for (std::thread& t : state_->threads) t.join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  state_->queue.close();
  for (std::thread& t : state_->threads) t.join();
}

bool ThreadPool::post(std::function<void()> helper) {
  return state_->queue.push_unbounded(std::move(helper));
}

int ThreadPool::threads() const noexcept {
  return static_cast<int>(state_->threads.size());
}

namespace detail {

void fork_join(std::size_t n, int participants,
               void (*call)(void*, std::size_t), void* fn) {
  const bool on_pool = t_pool != nullptr;
  Executor& pool = on_pool ? *t_pool : process_pool();
  const auto loop = std::make_shared<Loop>(n, call, fn);
  // Helpers beyond the pool's other threads, or beyond the pieces the
  // caller leaves over, would only find an empty loop.
  const std::size_t helpers = std::min<std::size_t>(
      {static_cast<std::size_t>(participants - 1), n - 1,
       static_cast<std::size_t>(pool.threads() - (on_pool ? 1 : 0))});
  try {
    for (std::size_t h = 0; h < helpers; ++h) {
      if (!pool.post([loop] { loop->run_pieces(); })) break;
    }
  } catch (...) {
    // A post that cannot allocate only costs parallelism: the caller
    // runs whatever no helper claims.
  }
  loop->run_pieces();
  if (loop->finished.load(std::memory_order_acquire) != n) {
    std::unique_lock lock(loop->mutex);
    loop->done.wait(lock, [&] {
      return loop->finished.load(std::memory_order_acquire) == n;
    });
  }
  if (loop->error) std::rethrow_exception(loop->error);
}

}  // namespace detail

}  // namespace paremsp
