// StreamSession — the engine front end for stream::SlabSession: label an
// arbitrarily tall image one row-band slab at a time THROUGH the worker
// pool, with a bounded in-flight window (backpressure), deadline and
// cancellation honored at every slab boundary, and a clean failure
// for every pending op if the engine shuts down mid-session.
//
// Slabs in flight: slab k+1's pixels do not need slab k's seam — only
// its fold does. So each admitted slab is LABELED on its own worker task
// as soon as it is admitted (stream::SlabSession::label, into a work area
// of its own), up to `window` slabs at once, and the FOLDS (seam unite,
// track, key and cell folds) run strictly in slab order. Fold k runs on
// whichever thread finishes later — label k's or fold k-1's: the thread
// that ends label k folds it if fold k-1 is done, and the thread that
// ends fold k-1 goes on to fold k if label k is done. No worker ever
// waits for a queued task, so even a one-worker engine cannot deadlock.
// The engine interleaves any number of sessions and one-shot jobs
// between those tasks, and a slab of at least 1 Mi pixels is labeled as
// row bands whose helpers are posted to this engine's own workers, like
// a sharded request's tile loops.
//
// Work areas come from a pool the session owns: created on first need,
// at most `window` of them (a slab holds one from admission until its
// fold delivers it), reused across slabs. slab_working_bytes() sums
// them, so it stays within `window` times the core session's
// slab_working_bytes() on the same stream.
//
// Dataflow per slab:
//
//   push_slab: admit (window) -> enqueue label task
//   label task: adopt recycled planes -> QoS gate -> core.label(view, area)
//     -> if fold k-1 is done: fold loop
//   fold loop, in slab order: QoS gate -> core.fold(area) / core.finish()
//     -> fulfill the op's future -> next op, if it is labeled
//
// Any failure — QoS, a core exception, engine shutdown — POISONS the
// session at the first failing op in slab order: that op's future and
// every later future fail with the same cause (slabs already labeled
// past it are dropped; a slab still being labeled fails when its label
// returns, so the borrow contract below holds for failed futures too),
// and later push_slab/finish calls return already-failed futures. QoS is checked before each label and again
// before each fold; a label skipped by QoS fails at its fold. Poisoning
// is one-way; a poisoned session only releases its state when destroyed.
// Caller bugs (wrong slab width, zero rows, push after finish, double
// finish) are the exception: they throw synchronously from the calling
// thread and do NOT poison, so a client can recover from its own
// argument mistakes.
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
#include <cstdint>
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
  /// lock and adopted by the next label task into its work area, so the
  /// caller never races a work area's scratch.
  void recycle(LabelImage&& plane);

  [[nodiscard]] const stream::StreamOptions& options() const noexcept {
    return config_.options;
  }
  [[nodiscard]] std::size_t window() const noexcept { return config_.window; }

  /// Working bytes of the session's slab work areas: the sum over areas
  /// of each area's SlabWork::working_bytes, as of the last delivered
  /// slab. At most window() times the core session's
  /// slab_working_bytes() on the same stream.
  [[nodiscard]] std::size_t slab_working_bytes() const;

 private:
  friend class LabelingEngine;  // sole constructor caller (open_stream)

  /// One admitted unit of work, in slab order: exactly one of the
  /// promises is active.
  struct Op {
    enum class State {
      Admitted,  // its label task has not started
      Labeling,  // its label task runs (and may read `view`)
      Labeled,   // ready to fold (or its label failed: see `error`)
      Failed,    // dropped by a poison; its promise holds the cause
    };
    bool is_finish = false;
    ConstImageView view;            // slab ops: borrowed caller storage
    stream::SlabWork* work = nullptr;  // slab ops: the op's work area
    State state = State::Admitted;
    std::exception_ptr error;  // why its label failed or was skipped
    std::promise<stream::SlabResult> slab_promise;
    std::promise<stream::StreamResult> finish_promise;
  };

  StreamSession(LabelingEngine& engine, StreamConfig config);

  /// Admit `op` (mutex_ held, window checked) and return its sequence
  /// number; slab ops take a work area from the pool.
  std::uint64_t admit(Op op);

  /// Queue op `seq`'s label task (call WITHOUT mutex_). Bounded: only
  /// producer threads call it. Poisons the session if the engine has
  /// shut down.
  void enqueue_label(std::uint64_t seq);

  /// Worker task of op `seq`: label its slab (finish ops have nothing to
  /// label), then fold if every earlier op is folded.
  void label_task(std::uint64_t seq);

  /// Fold every labeled op at the front, in slab order, on the calling
  /// thread. Entered with folding_ set; clears it once the front op is
  /// still being labeled (its label task then folds it) or the session
  /// is poisoned.
  void fold_loop();

  /// The CancelledError / DeadlineExceededError the session's QoS owes
  /// now, or null; `count` tallies it in the engine's counters.
  std::exception_ptr qos_error(bool count) const;

  /// Fail `op`'s promise with `error`.
  static void fail_op(Op& op, const std::exception_ptr& error);

  /// Fail an admitted op with the poison cause (mutex_ held).
  void drop(Op& op);

  /// One-way failure: record the cause, fail every admitted op not yet
  /// delivered, wake blocked producers. An op whose label is running is
  /// failed by its label task once the label returns, so a ready future
  /// still means no worker reads its slab. Caller must NOT hold mutex_.
  void poison(std::exception_ptr error);

  LabelingEngine& engine_;
  const StreamConfig config_;
  const std::chrono::steady_clock::time_point opened_at_;

  // The core session: label() only reads its options, so label tasks
  // call it concurrently; fold() and finish() run inside fold_loop,
  // which the folding_ flag serializes.
  stream::SlabSession core_;

  // Everything below is guarded by mutex_. A work area in use belongs to
  // its op's label task until the op is labeled, then to the fold loop.
  mutable std::mutex mutex_;
  std::condition_variable window_cv_;  // producers blocked on the window
  std::deque<Op> ops_;  // admitted, not yet folded, in slab order
                        // (a poisoned session keeps its failed ops)
  std::uint64_t front_seq_ = 0;  // sequence number of ops_.front()
  std::vector<std::unique_ptr<stream::SlabWork>> areas_;  // <= window
  std::vector<stream::SlabWork*> free_areas_;
  std::size_t working_bytes_ = 0;  // slab_working_bytes()
  std::vector<LabelImage> returned_planes_;  // recycle() parking lot
  std::size_t inflight_ = 0;  // admitted, future not yet fulfilled
  bool folding_ = false;      // a thread is inside fold_loop
  bool finish_requested_ = false;
  std::exception_ptr poison_;  // non-null once the session failed
};

}  // namespace paremsp::engine
