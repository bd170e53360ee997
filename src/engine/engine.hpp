// LabelingEngine — a high-throughput batch front end for every registry
// algorithm.
//
// PAREMSP (Algorithm 7) parallelizes one large image across threads; this
// engine covers the complementary production workload: a heavy stream of
// small-to-medium images, where per-call scratch allocation and thread
// spin-up dominate wall clock. It owns a persistent std::thread worker
// pool fed by a bounded MPMC queue (backpressure: submit blocks when the
// queue is full); each worker keeps a labeler instance plus a reusable
// ScratchArena, so the steady state labels images allocation-free through
// Labeler::run. Results are bit-identical to calling run()/label()
// directly — the engine changes scheduling and memory reuse, never output
// (tests/test_engine.cpp asserts this per algorithm).
//
// The workers are also the fork-join pool (common/executor.hpp) of every
// parallel_for called on them: a parallel labeler running inside a job
// posts its helper pieces to this queue instead of starting threads of
// its own, and a job waiting on its loop only ever runs that loop's
// pieces.
//
// The single entry point is submit(LabelRequest) — the same request shape
// Labeler::run executes (core/request.hpp); a request with request.shard
// set is one job that labels the image through the run pipeline
// (label_runs_impl) with the request's tile grid, fanned out over the
// whole pool.
//
// Lifecycle: constructor spawns the workers; shutdown() (or destruction)
// closes the queue, drains every already-accepted job, and joins — every
// future obtained from submit is guaranteed to become ready. See
// DESIGN.md §4/§7 for the architecture discussion.
//
//   LabelingEngine eng({.workers = 8});
//   auto fut = eng.submit(LabelRequest{.input = image});   // borrows image
//   LabelResponse r = fut.get();
//   eng.recycle(std::move(r.labels));   // optional: keep arenas warm
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/executor.hpp"
#include "core/label_scratch.hpp"
#include "core/labeling.hpp"
#include "core/registry.hpp"
#include "core/request.hpp"
#include "engine/engine_stats.hpp"
#include "engine/job_queue.hpp"
#include "engine/scratch_arena.hpp"
#include "engine/sharded_labeler.hpp"

namespace paremsp::engine {

class StreamSession;
struct StreamConfig;

/// Engine construction knobs.
struct EngineConfig {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  int workers = 0;
  /// Bounded job-queue capacity (backpressure threshold).
  std::size_t queue_capacity = 1024;
  /// Algorithm each worker dispatches to. The default is aremsp_rle, the
  /// run-based twin of the paper's AREMSP: each request runs the same
  /// label_runs_impl pipeline as the sharded and stream paths, as one
  /// tile on the worker's thread, bit-identical to AREMSP (8-conn) and
  /// CCLREMSP (4-conn) in about half AREMSP's time. Sequential, because
  /// with many images in flight, parallelism across images beats
  /// parallelism within one small image. Pick Algorithm::Aremsp for the
  /// paper's pixel scan, or Algorithm::Paremsp with labeler.threads > 1
  /// when the stream contains large images.
  Algorithm algorithm = Algorithm::AremspRle;
  /// Options forwarded to make_labeler for each worker's instance. Its
  /// connectivity is the per-worker default; a LabelRequest may override
  /// connectivity per job.
  LabelerOptions labeler;
};

/// Persistent-worker batch labeling engine. Thread-safe: any number of
/// producer threads may submit concurrently.
class LabelingEngine : private Executor {
 public:
  explicit LabelingEngine(EngineConfig config = {});

  /// Drains accepted jobs and joins the workers (see shutdown()).
  ~LabelingEngine();

  LabelingEngine(const LabelingEngine&) = delete;
  LabelingEngine& operator=(const LabelingEngine&) = delete;

  /// THE entry point: enqueue one labeling request; the future yields the
  /// same LabelResponse a direct Labeler::run(request) would produce.
  ///
  /// The request BORROWS its views: keep `request.input`'s storage (and
  /// `label_out`'s, if set) alive and unmodified until the future is
  /// ready. With request.shard set, the image is labeled through the
  /// tile pipeline across the whole worker pool (one huge image) instead
  /// of on one worker; a ready future still means no worker reads the
  /// borrowed storage any more. A sharded request submitted after
  /// shutdown() fails its future with a PreconditionError. Submit from
  /// producer threads only, never from inside an engine job: the push is
  /// bounded. Blocks while the queue is full (backpressure); a one-shot
  /// request throws PreconditionError after shutdown().
  [[nodiscard]] std::future<LabelResponse> submit(LabelRequest request);

  /// Open a streaming slab session (engine/stream_session.hpp): label an
  /// arbitrarily tall image one row-band slab at a time through the
  /// worker pool, carrying only seam state between slabs. Up to the
  /// window's slabs are labeled at once and folded into the seam state
  /// in slab order (slab k+1's fold needs k's seam), pipelined against
  /// everything else the engine runs; push_slab applies the bounded
  /// in-flight window (backpressure) and the session honors the
  /// config's deadline/cancellation at every slab boundary. The session
  /// outlives the engine reference it holds only until shutdown():
  /// shutting down mid-session fails the remaining futures cleanly.
  [[nodiscard]] std::shared_ptr<StreamSession> open_stream(
      StreamConfig config);

  /// Hand a result's label plane back for reuse. Optional: skipping it
  /// only costs the workers one plane allocation per request.
  void recycle(LabelImage&& plane);

  /// Stop accepting new jobs, finish every already-accepted one, join the
  /// workers. Idempotent; called by the destructor.
  void shutdown();

  /// Throughput/latency/workspace counters, callable mid-run.
  [[nodiscard]] EngineStatsSnapshot stats() const;

  /// Push the current stats() snapshot into the process-wide obs gauge
  /// registry (obs/metrics.hpp) under `engine_*` names, so the Prometheus
  /// and JSON exporters see engine health without holding an engine
  /// reference. Call from a monitor loop or before exporting.
  void publish_metrics() const;

  [[nodiscard]] int workers() const noexcept {
    return static_cast<int>(threads_.size());
  }
  [[nodiscard]] const EngineConfig& config() const noexcept {
    return config_;
  }

 private:
  friend class StreamSession;   // stream_session.cpp: slab label tasks

  /// The ONE job shape: a labeling request plus the promise its response
  /// is delivered through — or a task (a fork-join helper, or a stream
  /// slab's label task).
  struct Job {
    LabelRequest request;  // borrows the caller's storage
    std::promise<LabelResponse> promise;  // unused by task jobs
    EngineStats::Clock::time_point submitted_at{};
    // Generic engine task: when set, the worker runs it instead of the
    // labeling path. Tasks own their error handling.
    std::function<void()> task;
  };

  // Executor: helpers of parallel_for loops running on the workers.
  // Posted unbounded — a worker must never block on its own queue.
  [[nodiscard]] bool post(std::function<void()> helper) override;
  [[nodiscard]] int threads() const noexcept override { return workers(); }

  /// Validate a sharded request on the submitting thread and queue it.
  void submit_sharded(Job job);
  /// Run one sharded request (a worker job): label_runs_impl over the
  /// request's grid with every worker as a participant, shedding at
  /// pickup and between phases.
  void run_sharded(Job& job);
  /// QoS check point: throw CancelledError / DeadlineExceededError (and
  /// count it) if the job's token fired or its budget is spent.
  void check_qos(const Job& job);
  /// Enqueue a generic task. Bounded (backpressured) pushes are for
  /// producer threads; tasks spawned by workers must pass bounded = false
  /// (see JobQueue::push_unbounded). Returns false once the queue is
  /// closed.
  [[nodiscard]] bool enqueue_task(std::function<void()> task, bool bounded);

  /// Workspace for sharded runs. It lives at the engine, not in a worker's
  /// arena, so a huge image does not grow every worker's scratch to its
  /// size; at most kPooledShardScratch are parked between runs.
  [[nodiscard]] std::unique_ptr<LabelScratch> take_shard_scratch();
  void return_shard_scratch(std::unique_ptr<LabelScratch> scratch);
  static constexpr std::size_t kPooledShardScratch = 2;

  void worker_main(ScratchArena& arena, int index);
  /// Move one client-recycled plane, if any, into `scratch`'s pool.
  void maybe_adopt_recycled(LabelScratch& scratch);

  EngineConfig config_;
  JobQueue<Job> queue_;
  EngineStats stats_;

  // Sharded-path accounting (kept out of the per-request latency stats so
  // huge images don't distort the small-image percentiles).
  std::atomic<std::uint64_t> shards_submitted_{0};
  std::atomic<std::uint64_t> shards_completed_{0};
  std::atomic<std::uint64_t> shard_tasks_completed_{0};

  // QoS accounting: deliveries of DeadlineExceededError / CancelledError
  // across every executor path (one-shot pickup, sharded phase
  // boundaries, stream slab boundaries).
  std::atomic<std::uint64_t> jobs_shed_{0};
  std::atomic<std::uint64_t> jobs_cancelled_{0};

  // Streaming-session accounting (see EngineStatsSnapshot).
  std::atomic<std::uint64_t> stream_sessions_opened_{0};
  std::atomic<std::uint64_t> stream_sessions_completed_{0};
  std::atomic<std::uint64_t> stream_slabs_completed_{0};
  std::atomic<std::uint64_t> stream_carried_components_{0};

  // Client-returned planes waiting for a worker to adopt them. A plain
  // mutexed stack: recycling is an optimization, contention on it is not
  // on the labeling path.
  std::mutex recycled_mutex_;
  std::vector<LabelImage> recycled_planes_;

  // Sharded-run workspaces parked between runs (see take_shard_scratch).
  std::mutex shard_scratch_mutex_;
  std::vector<std::unique_ptr<LabelScratch>> shard_scratch_;

  std::vector<std::unique_ptr<ScratchArena>> arenas_;
  std::vector<std::thread> threads_;
};

}  // namespace paremsp::engine
