// Implementation of the engine's streaming slab path — see
// stream_session.hpp for the contract and engine.hpp / DESIGN.md §12 for
// where it sits in the architecture.
//
// Concurrency shape: producers (push_slab / finish) admit ops under the
// mutex, in slab order, and queue one label task per op. Label tasks run
// concurrently, each on its own work area; the fold of the op at the
// front of ops_ runs on whichever thread completes the later of its
// label and the previous fold (fold_loop, serialized by folding_).
#include "engine/stream_session.hpp"

#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "engine/engine.hpp"

namespace paremsp::engine {

std::shared_ptr<StreamSession> LabelingEngine::open_stream(
    StreamConfig config) {
  PAREMSP_REQUIRE(config.window >= 1, "stream window must be at least 1");
  if (config.deadline.has_value()) {
    PAREMSP_REQUIRE(config.deadline->count() > 0,
                    "deadline budget must be a positive duration");
  }
  // The core session's constructor validates StreamOptions (cols,
  // threshold range, scan/connectivity pairing) and throws before the
  // engine counts anything.
  auto session =
      std::shared_ptr<StreamSession>(new StreamSession(*this, std::move(config)));
  stream_sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  return session;
}

StreamSession::StreamSession(LabelingEngine& engine, StreamConfig config)
    : engine_(engine),
      config_(std::move(config)),
      opened_at_(std::chrono::steady_clock::now()),
      core_(config_.options) {}

std::future<stream::SlabResult> StreamSession::push_slab(
    ConstImageView slab) {
  // Caller-bug validation happens HERE, synchronously, so an argument
  // mistake throws into the calling frame instead of poisoning the
  // session from a worker. The core re-checks on the worker (cheap), but
  // by then these can no longer fail.
  PAREMSP_REQUIRE(slab.cols() == config_.options.cols,
                  "slab width must match StreamOptions::cols");
  PAREMSP_REQUIRE(slab.rows() >= 1, "slab must contain at least one row");
  Op op;
  op.view = slab;
  std::future<stream::SlabResult> future = op.slab_promise.get_future();
  std::uint64_t seq = 0;
  {
    std::unique_lock lock(mutex_);
    PAREMSP_REQUIRE(!finish_requested_,
                    "push_slab called after finish() on this session");
    // Backpressure: admit only once the in-flight window has room. A
    // poisoned session stops blocking — there is nothing to wait for.
    window_cv_.wait(lock, [&] {
      return inflight_ < config_.window || poison_ != nullptr;
    });
    if (poison_ != nullptr) {
      op.slab_promise.set_exception(poison_);
      return future;
    }
    seq = admit(std::move(op));
  }
  enqueue_label(seq);
  return future;
}

std::future<stream::StreamResult> StreamSession::finish() {
  Op op;
  op.is_finish = true;
  std::future<stream::StreamResult> future = op.finish_promise.get_future();
  std::uint64_t seq = 0;
  {
    std::unique_lock lock(mutex_);
    PAREMSP_REQUIRE(!finish_requested_,
                    "finish() already called on this session");
    finish_requested_ = true;
    if (poison_ != nullptr) {
      op.finish_promise.set_exception(poison_);
      return future;
    }
    seq = admit(std::move(op));
  }
  enqueue_label(seq);
  return future;
}

void StreamSession::recycle(LabelImage&& plane) {
  std::lock_guard lock(mutex_);
  returned_planes_.push_back(std::move(plane));
}

std::size_t StreamSession::slab_working_bytes() const {
  std::lock_guard lock(mutex_);
  return working_bytes_;
}

std::uint64_t StreamSession::admit(Op op) {
  if (!op.is_finish) {
    // A slab holds its area from admission to delivery and at most
    // `window` slabs are admitted, so the pool never exceeds the window.
    if (free_areas_.empty()) {
      areas_.push_back(std::make_unique<stream::SlabWork>());
      free_areas_.push_back(areas_.back().get());
    }
    op.work = free_areas_.back();
    free_areas_.pop_back();
  }
  ++inflight_;
  ops_.push_back(std::move(op));
  return front_seq_ + ops_.size() - 1;
}

void StreamSession::enqueue_label(std::uint64_t seq) {
  auto self = shared_from_this();
  const bool accepted = engine_.enqueue_task(
      [self, seq] { self->label_task(seq); }, /*bounded=*/true);
  if (!accepted) {
    poison(std::make_exception_ptr(
        PreconditionError("LabelingEngine shut down mid-session")));
  }
}

std::exception_ptr StreamSession::qos_error(bool count) const {
  // Checked at slab boundaries, not inside the scan — slab granularity IS
  // the preemption granularity.
  if (config_.cancel.cancel_requested()) {
    if (count) {
      engine_.jobs_cancelled_.fetch_add(1, std::memory_order_relaxed);
    }
    return std::make_exception_ptr(
        CancelledError("stream session cancelled"));
  }
  if (config_.deadline.has_value() &&
      std::chrono::steady_clock::now() - opened_at_ >= *config_.deadline) {
    if (count) engine_.jobs_shed_.fetch_add(1, std::memory_order_relaxed);
    return std::make_exception_ptr(DeadlineExceededError(
        "stream session deadline expired; remaining slabs shed"));
  }
  return nullptr;
}

void StreamSession::label_task(std::uint64_t seq) {
  ConstImageView view;
  stream::SlabWork* work = nullptr;
  std::vector<LabelImage> planes;
  {
    std::lock_guard lock(mutex_);
    // Ops are popped only once labeled, so this op is still in ops_.
    Op& op = ops_[static_cast<std::size_t>(seq - front_seq_)];
    if (op.state == Op::State::Failed) return;  // poisoned since admission
    op.state = Op::State::Labeling;
    view = op.view;
    work = op.work;
    if (work != nullptr) planes.swap(returned_planes_);
  }
  std::exception_ptr error;
  if (work != nullptr) {
    // Adopt client-recycled planes into this op's own work area, so
    // recycle() never races a scratch in use.
    for (LabelImage& plane : planes) {
      work->scratch.recycle_plane(std::move(plane));
    }
    // QoS before the label too, so a cancelled stream stops scanning
    // slabs it will drop anyway; the fold's check is the one that counts.
    error = qos_error(/*count=*/false);
    if (error == nullptr) {
      try {
        core_.label(view, *work);
      } catch (...) {
        error = std::current_exception();
      }
    }
  }
  {
    std::lock_guard lock(mutex_);
    Op& op = ops_[static_cast<std::size_t>(seq - front_seq_)];
    if (poison_ != nullptr) {
      drop(op);  // poisoned while labeling: the view is no longer read
      return;
    }
    op.state = Op::State::Labeled;
    op.error = error;
    // The later finisher folds: fold seq-1 is still running or pending
    // unless this op is at the front with no fold loop active.
    if (folding_ || seq != front_seq_) return;
    folding_ = true;
  }
  fold_loop();
}

void StreamSession::fold_loop() {
  for (;;) {
    Op op;
    {
      std::lock_guard lock(mutex_);
      if (poison_ != nullptr || ops_.empty() ||
          ops_.front().state != Op::State::Labeled) {
        folding_ = false;  // the front's label task folds it
        return;
      }
      op = std::move(ops_.front());
      ops_.pop_front();
      ++front_seq_;
    }
    std::exception_ptr error = qos_error(/*count=*/true);
    if (error == nullptr) error = op.error;
    const std::size_t working_before =
        op.work != nullptr ? op.work->working_bytes : 0;
    if (error == nullptr) {
      try {
        // The core session opens the op's stream.fold / stream.finish
        // span itself.
        if (op.is_finish) {
          stream::StreamResult done = core_.finish();
          // Count before fulfilling: a caller returning from future.get()
          // must already observe the completion in stats().
          engine_.stream_sessions_completed_.fetch_add(
              1, std::memory_order_relaxed);
          op.finish_promise.set_value(std::move(done));
        } else {
          stream::SlabResult result = core_.fold(*op.work);
          engine_.stream_slabs_completed_.fetch_add(1,
                                                    std::memory_order_relaxed);
          engine_.stream_carried_components_.fetch_add(
              static_cast<std::uint64_t>(result.open_components),
              std::memory_order_relaxed);
          op.slab_promise.set_value(std::move(result));
        }
      } catch (...) {
        error = std::current_exception();
      }
    }
    if (error != nullptr) {
      fail_op(op, error);
      // Fails every later op, labeled or not; the loop then stops.
      poison(error);
    }
    {
      std::lock_guard lock(mutex_);
      if (op.work != nullptr) {
        working_bytes_ += op.work->working_bytes - working_before;
        free_areas_.push_back(op.work);
      }
      --inflight_;
    }
    window_cv_.notify_all();
  }
}

void StreamSession::fail_op(Op& op, const std::exception_ptr& error) {
  if (op.is_finish) {
    op.finish_promise.set_exception(error);
  } else {
    op.slab_promise.set_exception(error);
  }
}

void StreamSession::drop(Op& op) {
  fail_op(op, poison_);
  op.state = Op::State::Failed;
  --inflight_;
}

void StreamSession::poison(std::exception_ptr error) {
  {
    std::lock_guard lock(mutex_);
    if (poison_ == nullptr) poison_ = error;
    for (Op& op : ops_) {
      if (op.state == Op::State::Admitted || op.state == Op::State::Labeled) {
        drop(op);
      }
    }
  }
  window_cv_.notify_all();
}

}  // namespace paremsp::engine
