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
// The single entry point is submit(LabelRequest) — the same request shape
// Labeler::run executes (core/request.hpp); the sharded huge-image
// pipeline is selected by request.shard.
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

#include "analysis/feature_accumulator.hpp"
#include "core/labeling.hpp"
#include "core/registry.hpp"
#include "core/request.hpp"
#include "core/runs.hpp"
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
  /// Algorithm each worker dispatches to. The default is AREMSP — the
  /// paper's fastest sequential algorithm — because with many images in
  /// flight, parallelism across images beats parallelism within one
  /// small image. Pick Algorithm::Paremsp with labeler.threads > 1 when
  /// the stream contains large images.
  Algorithm algorithm = Algorithm::Aremsp;
  /// Options forwarded to make_labeler for each worker's instance. Its
  /// connectivity is the per-worker default; a LabelRequest may override
  /// connectivity per job.
  LabelerOptions labeler;
};

/// Persistent-worker batch labeling engine. Thread-safe: any number of
/// producer threads may submit concurrently.
class LabelingEngine {
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
  /// sharded tile pipeline across the whole worker pool (one huge image)
  /// instead of as a single worker job; the future only becomes ready
  /// once that pipeline has quiesced, so a ready future always means no
  /// worker still reads the borrowed storage; a shard cut short by
  /// shutdown() fails its future with a PreconditionError. Submit sharded
  /// requests from producer threads only, never from inside an engine
  /// job: the initial tile fan-out takes the bounded queue path. Blocks
  /// while the queue is full (backpressure); throws PreconditionError
  /// after shutdown().
  [[nodiscard]] std::future<LabelResponse> submit(LabelRequest request);

  /// Open a streaming slab session (engine/stream_session.hpp): label an
  /// arbitrarily tall image one row-band slab at a time through the
  /// worker pool, carrying only seam state between slabs. Slab jobs are
  /// serialized per session (slab k+1 needs k's seam) but pipeline
  /// against everything else the engine runs; push_slab applies a
  /// bounded in-flight window (backpressure) and the session honors the
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
  friend class ShardedRun;      // sharded_labeler.cpp: pushes phase jobs
  friend class StreamSession;   // stream_session.cpp: slab job chains

  /// The ONE job shape: a labeling request plus the promise its response
  /// is delivered through — or, for sharded phase and stream slab
  /// continuations, a task.
  struct Job {
    LabelRequest request;  // borrows the caller's storage
    std::promise<LabelResponse> promise;  // unused by task jobs
    EngineStats::Clock::time_point submitted_at{};
    // Generic engine task: when set, the worker runs it with its arena
    // instead of the labeling path. Tasks own their error handling.
    std::function<void(ScratchArena&)> task;
  };

  /// Start the sharded pipeline for a request with request.shard set
  /// (validates options/connectivity on the submitting thread).
  void start_sharded(LabelRequest request,
                     std::promise<LabelResponse> promise);
  /// Enqueue a generic task. Bounded (backpressured) pushes are for
  /// producer threads; workers spawning continuations must pass
  /// bounded = false (see JobQueue::push_unbounded). Returns false once
  /// the queue is closed.
  [[nodiscard]] bool enqueue_task(std::function<void(ScratchArena&)> task,
                                  bool bounded);
  /// Pop a client-recycled plane for a sharded run's output, if any.
  [[nodiscard]] LabelImage take_recycled_plane();

  /// Pooled storage for sharded runs' global parent arrays. These live at
  /// the engine (one buffer spans all workers, so per-worker arenas cannot
  /// hold them) and are handed out with UNSPECIFIED contents — REM
  /// initializes p[l] = l as labels are issued, so the usual
  /// std::vector value-initialization would be a full serial memset of
  /// up to 4N bytes per run for nothing.
  struct ShardBuffer {
    std::unique_ptr<Label[]> data;
    std::size_t capacity = 0;
  };
  /// A buffer of capacity >= n (pooled if available, grown otherwise).
  [[nodiscard]] ShardBuffer take_shard_buffer(std::size_t n);
  /// Hand a buffer back for the next sharded run. No-op on empty buffers.
  void return_shard_buffer(ShardBuffer buffer);

  /// Pooled per-provisional-label feature cells for stats-carrying sharded
  /// runs. Same unspecified-contents contract as ShardBuffer: cells are
  /// initialized lazily at new-label events, so no O(label-space) clear.
  struct ShardCellBuffer {
    std::unique_ptr<analysis::FeatureCell[]> data;
    std::size_t capacity = 0;
  };
  [[nodiscard]] ShardCellBuffer take_shard_cells(std::size_t n);
  void return_shard_cells(ShardCellBuffer buffer);

  /// Pooled per-tile RunBuffer vectors for Runs-mode sharded runs (and
  /// anything else that needs a batch of them). A returned vector keeps
  /// every buffer's grown row-offset/run storage, so steady-state Runs
  /// shards allocate nothing. The vector may come back LARGER than n —
  /// callers must treat only their first n entries as theirs.
  [[nodiscard]] std::vector<RunBuffer> take_run_buffers(std::size_t n);
  void return_run_buffers(std::vector<RunBuffer> buffers);

  void worker_main(ScratchArena& arena, int index);
  void maybe_adopt_recycled(ScratchArena& arena);

  EngineConfig config_;
  JobQueue<Job> queue_;
  EngineStats stats_;

  // Sharded-path accounting (kept out of the per-request latency stats so
  // tile jobs don't distort the small-image percentiles).
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

  // Parent buffers parked between sharded runs (see ShardBuffer).
  std::mutex shard_buffers_mutex_;
  std::vector<ShardBuffer> shard_buffers_;
  std::vector<ShardCellBuffer> shard_cell_buffers_;
  std::vector<std::vector<RunBuffer>> run_buffer_pool_;

  std::vector<std::unique_ptr<ScratchArena>> arenas_;
  std::vector<std::thread> threads_;
};

}  // namespace paremsp::engine
