#include "engine/engine.hpp"

#include <chrono>
#include <exception>
#include <string>
#include <utility>

#include "common/contracts.hpp"
#include "core/qos.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace paremsp::engine {

namespace {

int resolved_workers(int requested) {
  PAREMSP_REQUIRE(requested >= 0, "workers must be >= 0");
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace

LabelingEngine::LabelingEngine(EngineConfig config)
    : config_(config), queue_(config.queue_capacity) {
  const int n = resolved_workers(config_.workers);
  // Validate the algorithm/options combination up front, on the caller's
  // thread, so a bad config throws here instead of poisoning every job.
  (void)make_labeler(config_.algorithm, config_.labeler);

  arenas_.reserve(static_cast<std::size_t>(n));
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    arenas_.push_back(std::make_unique<ScratchArena>());
  }
  try {
    for (int i = 0; i < n; ++i) {
      threads_.emplace_back([this, i] {
        worker_main(*arenas_[static_cast<std::size_t>(i)], i);
      });
    }
  } catch (...) {
    // A failed std::thread spawn (resource exhaustion) must not leave the
    // already-started workers joinable — that would terminate the process
    // in ~threads_ instead of surfacing the error to the caller.
    shutdown();
    throw;
  }
}

LabelingEngine::~LabelingEngine() { shutdown(); }

std::future<LabelResponse> LabelingEngine::submit(LabelRequest request) {
  Job job;
  job.request = std::move(request);
  std::future<LabelResponse> future = job.promise.get_future();
  job.submitted_at = EngineStats::Clock::now();
  if (job.request.shard.has_value()) {
    submit_sharded(std::move(job));
    return future;
  }
  stats_.record_submission(job.submitted_at);
  if (!queue_.push(std::move(job))) {
    stats_.record_submission_aborted();
    throw PreconditionError("LabelingEngine::submit after shutdown");
  }
  return future;
}

bool LabelingEngine::post(std::function<void()> helper) {
  return enqueue_task(std::move(helper), /*bounded=*/false);
}

bool LabelingEngine::enqueue_task(std::function<void()> task, bool bounded) {
  Job job;
  job.task = std::move(task);
  return bounded ? queue_.push(std::move(job))
                 : queue_.push_unbounded(std::move(job));
}

void LabelingEngine::check_qos(const Job& job) {
  // The budget covers queue wait plus execution, anchored at submit.
  if (job.request.cancel.cancel_requested()) {
    jobs_cancelled_.fetch_add(1, std::memory_order_relaxed);
    throw CancelledError("request cancelled before it completed");
  }
  if (job.request.deadline.has_value() &&
      EngineStats::Clock::now() - job.submitted_at >= *job.request.deadline) {
    jobs_shed_.fetch_add(1, std::memory_order_relaxed);
    throw DeadlineExceededError(
        "deadline expired before the request completed");
  }
}

std::unique_ptr<LabelScratch> LabelingEngine::take_shard_scratch() {
  {
    std::lock_guard lock(shard_scratch_mutex_);
    if (!shard_scratch_.empty()) {
      std::unique_ptr<LabelScratch> scratch = std::move(shard_scratch_.back());
      shard_scratch_.pop_back();
      return scratch;
    }
  }
  return std::make_unique<LabelScratch>();
}

void LabelingEngine::return_shard_scratch(
    std::unique_ptr<LabelScratch> scratch) {
  if (scratch == nullptr) return;
  std::lock_guard lock(shard_scratch_mutex_);
  // Each holds huge-image-sized buffers: parking more would hoard them.
  if (shard_scratch_.size() < kPooledShardScratch) {
    shard_scratch_.push_back(std::move(scratch));
  }
}

void LabelingEngine::recycle(LabelImage&& plane) {
  std::lock_guard lock(recycled_mutex_);
  // Parking more planes than the pool can adopt soon just hoards memory.
  if (recycled_planes_.size() < threads_.size() * 4) {
    recycled_planes_.push_back(std::move(plane));
  }
}

void LabelingEngine::shutdown() {
  queue_.close();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

EngineStatsSnapshot LabelingEngine::stats() const {
  EngineStatsSnapshot s = stats_.snapshot();
  for (const auto& arena : arenas_) {
    const ArenaStats a = arena->stats();
    s.scratch_reserved_bytes += a.reserved_bytes;
    s.scratch_grow_count += a.grow_count;
    s.plane_reuses += a.plane_reuses;
  }
  s.queue_depth = queue_.size();
  s.queue_high_water = queue_.high_water();
  s.queue_capacity = queue_.capacity();
  s.shards_submitted = shards_submitted_.load(std::memory_order_relaxed);
  s.shards_completed = shards_completed_.load(std::memory_order_relaxed);
  s.shard_tasks_completed =
      shard_tasks_completed_.load(std::memory_order_relaxed);
  s.jobs_shed = jobs_shed_.load(std::memory_order_relaxed);
  s.jobs_cancelled = jobs_cancelled_.load(std::memory_order_relaxed);
  s.stream_sessions_opened =
      stream_sessions_opened_.load(std::memory_order_relaxed);
  s.stream_sessions_completed =
      stream_sessions_completed_.load(std::memory_order_relaxed);
  s.stream_slabs_completed =
      stream_slabs_completed_.load(std::memory_order_relaxed);
  s.stream_carried_components =
      stream_carried_components_.load(std::memory_order_relaxed);
  return s;
}

void LabelingEngine::publish_metrics() const {
  const EngineStatsSnapshot s = stats();
  // Gauges throughout (last-write-wins absolute values): the snapshot is
  // already cumulative, and a second engine in the process would fight a
  // counter's monotone add.
  obs::gauge("engine_jobs_submitted").set(static_cast<double>(s.jobs_submitted));
  obs::gauge("engine_jobs_completed").set(static_cast<double>(s.jobs_completed));
  obs::gauge("engine_jobs_failed").set(static_cast<double>(s.jobs_failed));
  obs::gauge("engine_pixels_labeled").set(static_cast<double>(s.pixels_labeled));
  obs::gauge("engine_queue_depth").set(static_cast<double>(s.queue_depth));
  obs::gauge("engine_queue_high_water")
      .set(static_cast<double>(s.queue_high_water));
  obs::gauge("engine_queue_capacity")
      .set(static_cast<double>(s.queue_capacity));
  obs::gauge("engine_images_per_sec").set(s.images_per_sec);
  obs::gauge("engine_mpixels_per_sec").set(s.mpixels_per_sec);
  obs::gauge("engine_latency_mean_ms").set(s.latency_mean_ms);
  obs::gauge("engine_latency_p50_ms").set(s.latency_p50_ms);
  obs::gauge("engine_latency_p99_ms").set(s.latency_p99_ms);
  obs::gauge("engine_latency_max_ms").set(s.latency_max_ms);
  obs::gauge("engine_latency_failed_mean_ms").set(s.latency_failed_mean_ms);
  obs::gauge("engine_latency_failed_p99_ms").set(s.latency_failed_p99_ms);
  obs::gauge("engine_workers").set(static_cast<double>(threads_.size()));
  obs::gauge("engine_shards_completed")
      .set(static_cast<double>(s.shards_completed));
  obs::gauge("engine_shard_tasks_completed")
      .set(static_cast<double>(s.shard_tasks_completed));
  obs::gauge("engine_jobs_shed").set(static_cast<double>(s.jobs_shed));
  obs::gauge("engine_jobs_cancelled")
      .set(static_cast<double>(s.jobs_cancelled));
  obs::gauge("engine_stream_sessions_opened")
      .set(static_cast<double>(s.stream_sessions_opened));
  obs::gauge("engine_stream_sessions_completed")
      .set(static_cast<double>(s.stream_sessions_completed));
  obs::gauge("engine_stream_slabs_completed")
      .set(static_cast<double>(s.stream_slabs_completed));
  obs::gauge("engine_stream_carried_components")
      .set(static_cast<double>(s.stream_carried_components));
}

void LabelingEngine::maybe_adopt_recycled(LabelScratch& scratch) {
  LabelImage plane;
  {
    std::lock_guard lock(recycled_mutex_);
    if (recycled_planes_.empty()) return;
    plane = std::move(recycled_planes_.back());
    recycled_planes_.pop_back();
  }
  scratch.recycle_plane(std::move(plane));
}

void LabelingEngine::worker_main(ScratchArena& arena, int index) {
  obs::set_thread_name("worker-" + std::to_string(index));
  // parallel_for calls made by this worker's jobs post back to the pool.
  const PoolThreadScope pool_scope(*this);
  // One labeler per worker for its whole lifetime: per-call construction
  // is exactly the overhead this engine exists to amortize.
  const std::unique_ptr<Labeler> labeler =
      make_labeler(config_.algorithm, config_.labeler);
  obs::Counter& jobs_metric = obs::counter("engine_jobs_total");
  obs::Counter& failed_metric = obs::counter("engine_jobs_failed_total");
  obs::Counter& pixels_metric = obs::counter("engine_pixels_total");

  while (auto job = queue_.pop()) {
    if (job->task) {
      // Generic engine task (fork-join helper, stream slab step): handles
      // its own errors, bypasses the request stats. The catch-all is a
      // backstop — a throwing task must never take the worker thread (and
      // with it the pool) down.
      try {
        job->task();
      } catch (...) {
      }
      continue;
    }
    if (job->request.shard.has_value()) {
      run_sharded(*job);
      continue;
    }
    // Queue wait: how long the job sat before this worker picked it up.
    // Emitted as a trace span on the WORKER's track (start backdated to
    // the submit stamp), so Perfetto shows wait and execute end-to-end.
    const auto picked_up = EngineStats::Clock::now();
    const double queue_wait_ms =
        std::chrono::duration<double, std::milli>(picked_up -
                                                  job->submitted_at)
            .count();
    if (obs::tracing_enabled()) {
      const std::int64_t submit_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              job->submitted_at.time_since_epoch())
              .count();
      obs::emit_span("job.queue_wait", "engine", submit_ns,
                     obs::trace_now_ns() - submit_ns);
    }
    maybe_adopt_recycled(arena.scratch());
    const std::int64_t pixels = job->request.input.size();
    LabelResponse response;
    std::exception_ptr error;
    try {
      // QoS check point: shed the job at pickup — before any pixel is
      // read — if its client cancelled or its latency budget is already
      // gone (a job that sat out its deadline in the queue must not
      // occupy a worker).
      check_qos(*job);
      obs::Span span("job.execute", "engine");
      response = labeler->run(job->request, arena.scratch());
    } catch (...) {
      error = std::current_exception();
    }
    response.timings.queue_wait_ms = queue_wait_ms;
    // Record the completion BEFORE fulfilling the promise: a caller
    // returning from future.get() must already observe the job in
    // stats() (the engine tests poll stats right after draining).
    const bool failed = error != nullptr;
    const double latency_ms =
        std::chrono::duration<double, std::milli>(
            EngineStats::Clock::now() - job->submitted_at)
            .count();
    stats_.record_completion(latency_ms, failed ? 0 : pixels, failed);
    arena.note_job(failed ? 0 : pixels);
    jobs_metric.increment();
    if (failed) failed_metric.increment();
    pixels_metric.add(failed ? 0 : static_cast<std::uint64_t>(pixels));
    if (failed) {
      job->promise.set_exception(std::move(error));
    } else {
      job->promise.set_value(std::move(response));
    }
  }
}

}  // namespace paremsp::engine
