// Implementation of the engine's streaming slab path — see
// stream_session.hpp for the contract and engine.hpp / DESIGN.md §12 for
// where it sits in the architecture.
//
// Concurrency shape: the session is a single-consumer op queue. Producers
// (push_slab / finish) append under the mutex and ensure exactly one
// chained worker task exists (running_); the task processes ONE op, then
// re-enqueues itself if more are pending. Processing one op per task —
// rather than draining the whole deque — is deliberate fairness: between
// two slabs of a long stream, the worker returns to the shared queue and
// every other session/job gets a turn.
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
  bool must_enqueue = false;
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
    ++inflight_;
    ops_.push_back(std::move(op));
    if (!running_) {
      running_ = true;
      must_enqueue = true;
    }
  }
  if (must_enqueue) enqueue_chain(/*bounded=*/true);
  return future;
}

std::future<stream::StreamResult> StreamSession::finish() {
  Op op;
  op.is_finish = true;
  std::future<stream::StreamResult> future = op.finish_promise.get_future();
  bool must_enqueue = false;
  {
    std::unique_lock lock(mutex_);
    PAREMSP_REQUIRE(!finish_requested_,
                    "finish() already called on this session");
    finish_requested_ = true;
    if (poison_ != nullptr) {
      op.finish_promise.set_exception(poison_);
      return future;
    }
    ++inflight_;
    ops_.push_back(std::move(op));
    if (!running_) {
      running_ = true;
      must_enqueue = true;
    }
  }
  if (must_enqueue) enqueue_chain(/*bounded=*/true);
  return future;
}

void StreamSession::recycle(LabelImage&& plane) {
  std::lock_guard lock(mutex_);
  returned_planes_.push_back(std::move(plane));
}

void StreamSession::enqueue_chain(bool bounded) {
  auto self = shared_from_this();
  const bool accepted = engine_.enqueue_task(
      [self] { self->step(); }, bounded);
  if (!accepted) {
    {
      std::lock_guard lock(mutex_);
      running_ = false;
    }
    poison(std::make_exception_ptr(
        PreconditionError("LabelingEngine shut down mid-session")));
  }
}

void StreamSession::step() {
  Op op;
  std::vector<LabelImage> planes;
  {
    std::lock_guard lock(mutex_);
    if (ops_.empty()) {
      // Poisoned between enqueue and pickup: the queue was already
      // drained and failed; nothing left to run.
      running_ = false;
      return;
    }
    op = std::move(ops_.front());
    ops_.pop_front();
    planes.swap(returned_planes_);
  }
  // Adopt client-recycled planes into the core's scratch here — on the
  // serialized consumer — so recycle() never races the core session.
  for (LabelImage& plane : planes) core_.recycle(std::move(plane));

  // QoS gate at the slab boundary: a fired token or an expired budget
  // sheds this op and everything behind it. Checked once per op, not
  // inside the scan — slab granularity IS the preemption granularity.
  std::exception_ptr error;
  if (config_.cancel.cancel_requested()) {
    engine_.jobs_cancelled_.fetch_add(1, std::memory_order_relaxed);
    error = std::make_exception_ptr(
        CancelledError("stream session cancelled"));
  } else if (config_.deadline.has_value() &&
             std::chrono::steady_clock::now() - opened_at_ >=
                 *config_.deadline) {
    engine_.jobs_shed_.fetch_add(1, std::memory_order_relaxed);
    error = std::make_exception_ptr(DeadlineExceededError(
        "stream session deadline expired; remaining slabs shed"));
  } else {
    try {
      // The core session opens the op's one stream.slab / stream.finish
      // span itself.
      if (op.is_finish) {
        stream::StreamResult done = core_.finish();
        // Count before fulfilling: a caller returning from future.get()
        // must already observe the completion in stats().
        engine_.stream_sessions_completed_.fetch_add(
            1, std::memory_order_relaxed);
        op.finish_promise.set_value(std::move(done));
      } else {
        stream::SlabResult result = core_.push_slab(op.view);
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
    poison(error);  // fails every queued op, wakes blocked producers
  }

  bool chain = false;
  {
    std::lock_guard lock(mutex_);
    --inflight_;
    if (!ops_.empty()) {
      chain = true;  // running_ stays true across the re-enqueue
    } else {
      running_ = false;
    }
  }
  window_cv_.notify_all();
  if (chain) enqueue_chain(/*bounded=*/false);
}

void StreamSession::fail_op(Op& op, const std::exception_ptr& error) {
  if (op.is_finish) {
    op.finish_promise.set_exception(error);
  } else {
    op.slab_promise.set_exception(error);
  }
}

void StreamSession::poison(std::exception_ptr error) {
  std::deque<Op> pending;
  {
    std::lock_guard lock(mutex_);
    if (poison_ == nullptr) poison_ = error;
    pending.swap(ops_);
    inflight_ -= pending.size();
  }
  for (Op& op : pending) fail_op(op, error);
  window_cv_.notify_all();
}

}  // namespace paremsp::engine
