// StreamSession — the engine front end for stream::SlabSession: label an
// arbitrarily tall image one row-band slab at a time THROUGH the worker
// pool, with a bounded in-flight window (backpressure), deadline and
// cancellation honored at every slab boundary, and a clean failure
// for every pending op if the engine shuts down mid-session.
//
// Why a session and not N submits: slab k+1's scan needs slab k's seam
// state, so the slabs of one session are inherently serial. The session
// therefore keeps AT MOST ONE worker task in flight and chains itself:
// each task processes one queued op (slab or finish) and re-enqueues if
// more are pending. Serial per session — but the engine interleaves any
// number of sessions and one-shot jobs between those tasks, so a slow
// streaming client never monopolizes the pool. Within one op, a slab of
// at least 1 Mi pixels is labeled as row bands whose helpers are posted
// to this engine's own workers, like a sharded request's tile loops.
//
// Dataflow per op, on whichever worker picks the task up:
//
//   adopt recycled planes -> QoS gate (cancel token, elapsed-vs-deadline)
//     -> core.push_slab(view) / core.finish() -> fulfill the op's future
//
// Any failure — QoS, a core exception, engine shutdown — POISONS the
// session: the current op's future and every queued future fail with the
// same cause, and later push_slab/finish calls return already-failed
// futures. Poisoning is one-way; a poisoned session only releases its
// seam state when destroyed. Caller bugs (wrong slab width, zero rows,
// push after finish, double finish) are the exception: they throw
// synchronously from the calling thread and do NOT poison, so a client
// can recover from its own argument mistakes.
//
// Borrow contract: push_slab borrows the slab view — keep its storage
// alive and unmodified until that slab's future is ready. SlabResult
// planes can be handed back via recycle() to keep the session
// allocation-free in steady state.
//
//   auto session = engine.open_stream({.options = {.cols = width}});
//   for (auto& slab : slabs) {
//     auto fut = session->push_slab(ConstImageView(slab));  // may block
//     ... fut.get().labels ...                              // (window full)
//   }
//   stream::StreamResult done = session->finish().get();
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/qos.hpp"
#include "stream/slab_session.hpp"

namespace paremsp::engine {

class LabelingEngine;

/// Knobs for LabelingEngine::open_stream.
struct StreamConfig {
  /// Geometry/connectivity/scan/threshold/output options of the
  /// underlying stream::SlabSession (validated at open_stream).
  stream::StreamOptions options;

  /// Max slabs admitted but not yet delivered; push_slab blocks once the
  /// window is full. Must be >= 1. Window 1 is fully synchronous
  /// lockstep; larger windows let the producer run ahead of the pool.
  std::size_t window = 4;

  /// Relative wall-clock budget for the WHOLE session, anchored at
  /// open_stream. Checked before each slab/finish op runs: once elapsed
  /// >= deadline, the op and everything after it fail with
  /// DeadlineExceededError (counted in EngineStatsSnapshot::jobs_shed).
  std::optional<Deadline> deadline;

  /// Cooperative cancellation, checked at the same boundaries; a fired
  /// token fails remaining ops with CancelledError (jobs_cancelled).
  CancelToken cancel;
};

/// One streaming slab-labeling session. Thread-safe: push_slab, finish,
/// and recycle may race freely (though slabs are sequenced in call
/// order, so a single producer thread is the natural client).
///
/// Obtain via LabelingEngine::open_stream; the engine must outlive the
/// session handle (the session holds a reference, not ownership).
class StreamSession : public std::enable_shared_from_this<StreamSession> {
 public:
  StreamSession(const StreamSession&) = delete;
  StreamSession& operator=(const StreamSession&) = delete;
  ~StreamSession() = default;

  /// Append the next `slab.rows()` global rows. Borrows the view until
  /// the future is ready. Blocks while `window` ops are in flight.
  /// Throws PreconditionError synchronously on caller bugs (mismatched
  /// width, zero rows, called after finish()); QoS and engine failures
  /// arrive through the future instead.
  [[nodiscard]] std::future<stream::SlabResult> push_slab(
      ConstImageView slab);

  /// Resolve the stream (stream::SlabSession::finish) on a worker. At
  /// most one call; a second throws PreconditionError synchronously.
  [[nodiscard]] std::future<stream::StreamResult> finish();

  /// Hand a SlabResult plane back for reuse. Parked under the session
  /// lock and adopted by the worker before its next op, so the caller
  /// never races the core session's scratch.
  void recycle(LabelImage&& plane);

  [[nodiscard]] const stream::StreamOptions& options() const noexcept {
    return config_.options;
  }
  [[nodiscard]] std::size_t window() const noexcept { return config_.window; }

 private:
  friend class LabelingEngine;  // sole constructor caller (open_stream)

  /// One queued unit of work: exactly one of the promises is active.
  struct Op {
    bool is_finish = false;
    ConstImageView view;  // slab ops: borrowed caller storage
    std::promise<stream::SlabResult> slab_promise;
    std::promise<stream::StreamResult> finish_promise;
  };

  StreamSession(LabelingEngine& engine, StreamConfig config);

  /// Push the chained worker task into the engine queue (call WITHOUT
  /// mutex_; the caller already set running_). `bounded` is true only
  /// from producer threads (push_slab/finish); the worker's
  /// self-re-enqueue must stay unbounded or the pool could deadlock on
  /// its own queue. Poisons the session if the engine has shut down.
  void enqueue_chain(bool bounded);

  /// Process ONE op on a worker, then re-chain if more are queued.
  void step();

  /// Fail `op`'s promise with `error`.
  static void fail_op(Op& op, const std::exception_ptr& error);

  /// One-way failure: record the cause, fail every queued op, wake
  /// blocked producers. Caller must NOT hold mutex_.
  void poison(std::exception_ptr error);

  LabelingEngine& engine_;
  const StreamConfig config_;
  const std::chrono::steady_clock::time_point opened_at_;

  // Everything below mutex_ is guarded by it, EXCEPT core_: the core
  // session is touched only by the single chained worker task (plus the
  // destructor), which the running_ flag serializes.
  stream::SlabSession core_;

  std::mutex mutex_;
  std::condition_variable window_cv_;  // producers blocked on the window
  std::deque<Op> ops_;
  std::vector<LabelImage> returned_planes_;  // recycle() parking lot
  std::size_t inflight_ = 0;  // admitted, future not yet fulfilled
  bool running_ = false;      // a worker task is chained
  bool finish_requested_ = false;
  std::exception_ptr poison_;  // non-null once the session failed
};

}  // namespace paremsp::engine
