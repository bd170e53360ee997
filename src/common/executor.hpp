// The one fork-join executor: parallel_for over a persistent thread pool.
//
// Every parallel phase in the library — PAREMSP's chunk scans and seam
// merges, the run-based tile and band loops (paremsp_rle, paremsp2d, the
// engine's sharded requests and large stream slabs) — is a parallel_for
// over a fixed set of pieces. Which piece is which depends only on the
// caller's geometry (threads, grid), never on which thread runs it, so
// results are bit-identical however the pieces land.
//
// How a loop runs (DESIGN.md §2 S1, §4):
//
//   * Below kInlineGrain units of work, or with one piece or one
//     participant, every piece runs inline on the caller: no atomics, no
//     allocation, no wake-up. Tiny images never touch the pool.
//   * Otherwise the caller posts up to participants - 1 helpers to its
//     pool and runs pieces itself; helpers and caller claim pieces from
//     one shared counter. A helper that starts after the loop finished
//     finds no piece and returns. If a post fails (the pool shut down),
//     the caller simply runs the remaining pieces itself.
//   * The caller then waits for the pieces helpers have claimed. It never
//     runs anything but its own loop's pieces, so a waiter cannot be
//     stuck behind foreign work and the pool cannot deadlock at queue
//     capacity.
//   * The first exception from any piece is rethrown in the caller, after
//     every claimed piece has returned: when parallel_for returns (or
//     throws), no piece still touches the caller's data.
//
// The pool is the caller's own when the caller is a pool thread (an
// engine worker: labelers inside the engine share its workers instead of
// nesting teams); any other thread uses one lazily created process-wide
// pool of hardware_threads() - 1 helpers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>

namespace paremsp {

/// Work (pixels, or a comparable unit) below which parallel_for runs
/// every piece on the calling thread.
inline constexpr std::int64_t kInlineGrain = std::int64_t{1} << 16;

/// A pool of threads parallel_for can post helpers to.
class Executor {
 public:
  /// Queue `helper` for one of the pool's threads without blocking.
  /// Returns false once the pool no longer runs work.
  [[nodiscard]] virtual bool post(std::function<void()> helper) = 0;
  /// Number of threads in the pool.
  [[nodiscard]] virtual int threads() const noexcept = 0;

 protected:
  ~Executor() = default;
};

/// Marks the calling thread as a thread of `pool` while in scope, so
/// parallel_for calls made on it post their helpers back to `pool`.
class PoolThreadScope {
 public:
  explicit PoolThreadScope(Executor& pool) noexcept;
  ~PoolThreadScope();
  PoolThreadScope(const PoolThreadScope&) = delete;
  PoolThreadScope& operator=(const PoolThreadScope&) = delete;

 private:
  Executor* previous_;
};

/// A fixed set of threads draining one queue of helpers; the
/// process-wide pool is one of these. Destruction runs every helper
/// already posted, then joins.
class ThreadPool final : public Executor {
 public:
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] bool post(std::function<void()> helper) override;
  [[nodiscard]] int threads() const noexcept override;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

namespace detail {

/// The fan-out path of parallel_for; `fn` is called as call(fn, i).
void fork_join(std::size_t n, int participants,
               void (*call)(void*, std::size_t), void* fn);

}  // namespace detail

/// Run fn(i) for every i in [0, n) with at most `participants` threads
/// (the caller included), inline when `work` < kInlineGrain. Pieces may
/// run in any order and concurrently; fn must be safe for that.
template <class Fn>
void parallel_for(std::size_t n, std::int64_t work, int participants,
                  Fn&& fn) {
  if (n <= 1 || participants <= 1 || work < kInlineGrain) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  using F = std::remove_reference_t<Fn>;
  detail::fork_join(
      n, participants,
      [](void* f, std::size_t i) { (*static_cast<F*>(f))(i); },
      const_cast<void*>(static_cast<const void*>(&fn)));
}

}  // namespace paremsp
