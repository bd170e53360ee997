// Implementation of the engine's sharded request path — the huge-image
// dataflow described in sharded_labeler.hpp, selected by
// LabelRequest::shard.
//
// One ShardedRun object (shared_ptr-held by every job closure) carries the
// whole pipeline: the borrowed request (input view, outputs, label_out),
// the shared label plane, the global union-find parent array, the tile
// grid, and a reusable completion latch. Each phase fans out jobs; the
// worker that brings the latch to zero advances the pipeline. No thread
// ever waits on another: fan-in is a fetch_sub, and the acquire/release
// ordering on that counter is what publishes one phase's writes to the
// next (the role the OpenMP barrier plays in the in-process
// TiledParemspLabeler). Every phase is the run-based kernel of
// core/tiled_phases.hpp, so the label plane is written once, by the
// rewrite.
#include "engine/sharded_labeler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <future>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include <cstdint>

#include "common/contracts.hpp"
#include "common/timer.hpp"
#include "core/equiv_policies.hpp"
#include "core/registry.hpp"
#include "core/tiled_phases.hpp"
#include "engine/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "unionfind/parallel_rem.hpp"

namespace paremsp::engine {

/// Shared state + phase logic of one sharded labeling. Methods run on
/// whichever worker decrements the phase latch to zero.
class ShardedRun : public std::enable_shared_from_this<ShardedRun> {
 public:
  ShardedRun(LabelingEngine& engine, LabelRequest request,
             Connectivity connectivity, std::promise<LabelResponse> promise)
      : engine_(engine),
        request_(std::move(request)),
        options_(*request_.shard),
        connectivity_(connectivity),
        merger_(options_),
        promise_(std::move(promise)) {
    if (request_.threshold.has_value()) {
      // Exact integer form of im2bw's compare (see LabelRequest).
      cutoff_ = static_cast<int>(*request_.threshold * 255.0);
    }
    if (request_.deadline.has_value()) {
      deadline_ms_ =
          std::chrono::duration<double, std::milli>(*request_.deadline)
              .count();
    }
  }

  /// Fan out the Phase-I scan jobs (bounded pushes: this runs on the
  /// submitting thread, where backpressure belongs).
  void start() { launch(); }

 private:
  [[nodiscard]] ConstImageView image() const noexcept {
    return request_.input;
  }
  [[nodiscard]] bool with_stats() const noexcept {
    return request_.outputs.stats;
  }
  [[nodiscard]] std::span<const RunBuffer> runs() const noexcept {
    // Only the first tiles_.size() entries are this run's: the pooled
    // vector may be larger (a previous shard had more tiles), and the
    // excess buffers hold that shard's stale runs.
    return {tile_runs_.data(), std::min(tiles_.size(), tile_runs_.size())};
  }

  void launch() {
    result_.labels = engine_.take_recycled_plane();
    result_.labels.resize_for_overwrite(image().rows(), image().cols());
    if (with_stats()) result_.stats.emplace();
    if (image().size() == 0) {
      deliver();
      return;
    }

    parents_size_ = static_cast<std::size_t>(image().size()) + 1;
    parents_ = engine_.take_shard_buffer(parents_size_);
    if (with_stats()) cells_ = engine_.take_shard_cells(parents_size_);
    tiles_ = make_tile_grid(image().rows(), image().cols(),
                            options_.tile_rows, options_.tile_cols);
    // Per-tile run storage, pooled at the engine like the parent and
    // cell buffers: each RunBuffer keeps its grown run/offset storage
    // between shards, so steady-state shards allocate nothing.
    tile_runs_ = engine_.take_run_buffers(tiles_.size());
    grid_ = tile_grid_shape(tiles_);
    // Disjoint per-job counter slots (one per tile): scan jobs write
    // tile_joins_[t], merge jobs write merge_*_slots_[t], and resolve()
    // sums them after the latch barrier — no shared counters on any
    // worker's hot path.
    tile_joins_.assign(tiles_.size(), 0);
    merge_pair_slots_.assign(tiles_.size(), 0);
    merge_stat_slots_.assign(tiles_.size(), {});
    scan_queue_timer_.reset();

    // QoS check point before any pixel is read: a request whose token
    // already fired (or whose budget is non-existent) sheds here.
    check_qos();
    if (failed_.load(std::memory_order_acquire)) {
      deliver();
      return;
    }

    // Initial fan-out takes the bounded, backpressured queue path — this
    // runs on the submitting thread, where blocking is the contract.
    fan_out(
        tiles_.size(),
        [](const std::shared_ptr<ShardedRun>& self, std::size_t t) {
          self->run_scan(t);
        },
        /*bounded=*/true);
  }

  // --- Phase I: tile-local run scans ----------------------------------------
  void run_scan(std::size_t t) {
    if (!failed_.load(std::memory_order_acquire)) {
      // Queue wait for the sharded path: submit -> the first scan job
      // picked up. One winner stamps it; everyone else pays a relaxed
      // exchange. deliver() reads it only after every latch has drained.
      if (!queue_wait_claimed_.exchange(true, std::memory_order_relaxed)) {
        result_.timings.queue_wait_ms = scan_queue_timer_.elapsed_ms();
      }
      try {
        obs::Span span("shard.scan", "shard");
        auto& tile = tiles_[t];
        const std::span<Label> parents{parents_.data.get(), parents_size_};
        std::uint64_t* joins = &tile_joins_[t];
        // Labels live on the runs until the rewrite — nothing touches
        // the shared label plane in this phase. The fused variant writes
        // feature cells only in this tile's label range, so concurrent
        // scan jobs share cells_ race-free.
        tile.used =
            with_stats()
                ? scan_tile(image(), parents, tile, tile_runs_[t],
                            connectivity_, {cells_.data.get(), parents_size_},
                            joins, cutoff_)
                : scan_tile(image(), parents, tile, tile_runs_[t],
                            connectivity_, joins, cutoff_);
      } catch (...) {
        fail(std::current_exception());
      }
    }
    finish_phase(1, &ShardedRun::start_merge);
  }

  // --- Phase II: seam merges ------------------------------------------------
  void start_merge() {
    result_.timings.scan_ms = timer_.elapsed_ms();
    check_qos();  // phase boundary: shed before fanning out the merges
    if (failed_.load(std::memory_order_acquire)) {
      // Nothing else is in flight (the scan latch just drained): report.
      deliver();
      return;
    }
    if (tiles_.size() == 1 || !merger_.concurrent()) {
      // One merge job: a single tile has no seams to merge, and the
      // Sequential ablation backend must not run unions concurrently.
      fan_out(1, [](const std::shared_ptr<ShardedRun>& self) {
        self->run_merge(0, self->tiles_.size());
      });
      return;
    }
    fan_out(tiles_.size(), [](const std::shared_ptr<ShardedRun>& self,
                              std::size_t t) { self->run_merge(t, t + 1); });
  }

  /// Merge the seams owned by tiles [begin, end); the job's counters land
  /// in slot `begin`.
  void run_merge(std::size_t begin, std::size_t end) {
    if (!failed_.load(std::memory_order_acquire)) {
      try {
        obs::Span span("shard.merge", "shard");
        Label* p = parents_.data.get();
        std::uint64_t pairs = 0;
        uf::UniteStats us;
        for (std::size_t t = begin; t < end; ++t) {
          merge_run_seams(tiles_, runs(), t, grid_, connectivity_,
                          [&](Label x, Label y) {
                            ++pairs;
                            merger_.unite(p, x, y, us);
                          });
        }
        merge_pair_slots_[begin] = pairs;
        merge_stat_slots_[begin] = us;
      } catch (...) {
        fail(std::current_exception());
      }
    }
    finish_phase(1, &ShardedRun::resolve);
  }

  // --- Phase III: FLATTEN + canonical renumber, one job per band ----------
  // BandRenumber's steps as three latch fan-outs (flatten -> number ->
  // finalize); the O(bands) offsets and the check run on the latch
  // winner between them.
  void resolve() {
    result_.timings.merge_ms = timer_.elapsed_ms() - result_.timings.scan_ms;
    check_qos();  // phase boundary: shed before flatten + rewrite
    if (failed_.load(std::memory_order_acquire)) {
      finish_resolve();
      return;
    }
    try {
      obs::Span span("shard.flatten", "shard");
      // Every per-job counter slot is quiescent now (the merge latch
      // drained), so the latch winner folds them into the response
      // counters.
      auto& counters = result_.timings.counters;
      counters.tiles = tiles_.size();
      for (const TileSpec& tile : tiles_) {
        counters.provisional_labels += tile.used;
      }
      for (const std::uint64_t j : tile_joins_) counters.scan_unions += j;
      for (const std::uint64_t n : merge_pair_slots_) {
        counters.merge_pairs += n;
      }
      for (const uf::UniteStats& us : merge_stat_slots_) {
        counters.merge_unions += us.joins;
        counters.merge_retries += us.retries;
      }
      for (const RunBuffer& tile : runs()) {  // this run's tiles only
        counters.runs_extracted += tile.size();
      }
      renumber_.emplace(std::span<Label>{parents_.data.get(), parents_size_},
                        tiles_, runs(), connectivity_);
      if (renumber_->bands() == 1) {
        // One band: no fan-out, every step inline on this worker.
        result_.num_components = renumber_->run_serially();
      }
    } catch (...) {
      fail(std::current_exception());
    }
    if (failed_.load(std::memory_order_acquire) || renumber_->bands() == 1) {
      finish_resolve();
      return;
    }
    fan_out(renumber_->bands(), [](const std::shared_ptr<ShardedRun>& self,
                                   std::size_t b) {
      self->run_band(b, &BandRenumber::flatten, &ShardedRun::number_bands);
    });
  }

  /// One band step of the renumber; the worker that drains the latch
  /// continues with `next`.
  void run_band(std::size_t b, void (BandRenumber::*step)(std::size_t),
                void (ShardedRun::*next)()) {
    if (!failed_.load(std::memory_order_acquire)) {
      try {
        obs::Span span("shard.flatten.band", "shard");
        ((*renumber_).*step)(b);
      } catch (...) {
        fail(std::current_exception());
      }
    }
    finish_phase(1, next);
  }

  void number_bands() {
    if (failed_.load(std::memory_order_acquire)) {
      finish_resolve();
      return;
    }
    result_.num_components = renumber_->assign_offsets();
    fan_out(renumber_->bands(), [](const std::shared_ptr<ShardedRun>& self,
                                   std::size_t b) {
      self->run_band(b, &BandRenumber::number, &ShardedRun::finalize_bands);
    });
  }

  void finalize_bands() {
    if (!failed_.load(std::memory_order_acquire)) {
      try {
        renumber_->check();
      } catch (...) {
        fail(std::current_exception());
      }
    }
    if (failed_.load(std::memory_order_acquire)) {
      finish_resolve();
      return;
    }
    fan_out(renumber_->bands(), [](const std::shared_ptr<ShardedRun>& self,
                                   std::size_t b) {
      self->run_band(b, &BandRenumber::finalize, &ShardedRun::finish_resolve);
    });
  }

  /// End of Phase III: fold the fused stats through the final parents,
  /// stamp flatten_ms, and fan out the rewrite (or report a failure —
  /// no other job is in flight when this runs).
  void finish_resolve() {
    if (!failed_.load(std::memory_order_acquire) && with_stats()) {
      try {
        // The seam-merge jobs' unions are resolved in the parent table
        // now, so this fold merges accumulators exactly where labels
        // were unified. O(labels issued) — the label plane itself is
        // only touched again by the rewrite fan-out below.
        std::vector<analysis::ComponentInfo>& components =
            result_.stats->components;
        components.assign(static_cast<std::size_t>(result_.num_components),
                          {});
        fold_tile_features({cells_.data.get(), parents_size_},
                           {parents_.data.get(), parents_size_}, tiles_,
                           components);
      } catch (...) {
        fail(std::current_exception());
      }
    }
    result_.timings.flatten_ms =
        timer_.elapsed_ms() - result_.timings.scan_ms -
        result_.timings.merge_ms;
    if (failed_.load(std::memory_order_acquire)) {
      deliver();
      return;
    }

    // --- Phase IV: parallel rewrite ------------------------------------------
    // Expand the resolved run labels per tile (fill-width segments): the
    // plane (or the caller's label_out) is written here for the first and
    // only time.
    fan_out(tiles_.size(), [](const std::shared_ptr<ShardedRun>& self,
                              std::size_t t) { self->run_rewrite(t); });
  }

  void run_rewrite(std::size_t t) {
    if (!failed_.load(std::memory_order_acquire)) {
      obs::Span span("shard.rewrite", "shard");
      const std::span<const Label> parents{parents_.data.get(), parents_size_};
      const MutableImageView out = request_.label_out.has_value()
                                       ? *request_.label_out
                                       : MutableImageView(result_.labels);
      rewrite_run_labels(tile_runs_[t], parents, tiles_[t], out);
    }
    finish_phase(1, &ShardedRun::deliver);
  }

  /// Terminal step, reached exactly once per run, only after every job of
  /// every phase has drained — which is what lets the engine promise that
  /// a ready future means no worker still reads the borrowed input (and
  /// no worker still writes label_out), on the failure path included.
  /// Routes the outputs per the request, exactly like Labeler::run.
  void deliver() {
    result_.timings.relabel_ms =
        timer_.elapsed_ms() - result_.timings.scan_ms -
        result_.timings.merge_ms - result_.timings.flatten_ms;
    result_.timings.total_ms = timer_.elapsed_ms();
    quiesced_.increment();
    // Park the work buffers for the next run. Safe exactly here: every
    // job has drained, and the engine is alive (deliver runs on a worker
    // or on the submitting thread).
    engine_.return_shard_buffer(std::move(parents_));
    engine_.return_shard_cells(std::move(cells_));
    engine_.return_run_buffers(std::move(tile_runs_));
    if (failed_.load(std::memory_order_acquire)) {
      promise_.set_exception(error_);
      return;
    }
    // Count before fulfilling: a caller returning from future.get() must
    // already observe the completion in stats().
    engine_.shards_completed_.fetch_add(1, std::memory_order_relaxed);
    // Final labels already landed in label_out during the rewrite (the
    // working plane was never written), or the request did not ask for
    // them: the plane goes back to the engine either way.
    if (request_.label_out.has_value() || !request_.outputs.labels) {
      engine_.recycle(std::exchange(result_.labels, LabelImage{}));
    }
    promise_.set_value(std::move(result_));
  }

  // --- Fan-out / fan-in machinery -------------------------------------------

  /// Arm the latch with `count` and push that many phase jobs. `invoke`
  /// receives (self [, index]). `bounded` is true only for the initial
  /// fan-out from the submitting thread (backpressure belongs there);
  /// worker-spawned continuations must stay unbounded or the pool could
  /// deadlock blocking on its own queue. Never throws and never strands
  /// the latch: a failed or throwing push fails the shard and drains the
  /// latch for the jobs that were never launched, so the pipeline always
  /// reaches deliver(). Must be the caller's last statement — jobs may
  /// start (and zero the latch) before it returns.
  template <class Invoke>
  void fan_out(std::size_t count, Invoke invoke,
               bool bounded = false) noexcept {
    auto self = shared_from_this();
    remaining_.store(static_cast<std::int64_t>(count),
                     std::memory_order_relaxed);
    std::size_t launched = 0;
    try {
      for (; launched < count; ++launched) {
        const std::size_t i = launched;
        const bool accepted = engine_.enqueue_task(
            [self, invoke, i](ScratchArena&) {
              if constexpr (std::is_invocable_v<
                                Invoke, const std::shared_ptr<ShardedRun>&,
                                std::size_t>) {
                invoke(self, i);
              } else {
                invoke(self);
              }
            },
            bounded);
        if (!accepted) {
          // Engine shut down between phases: nothing will run the
          // remaining jobs.
          fail_shutdown();
          break;
        }
      }
    } catch (...) {  // closure allocation / queue growth (bad_alloc)
      fail(std::current_exception());
    }
    // Interned once per process (members reference the registry's
    // Counter), so this is a relaxed fetch_add — safe in noexcept.
    fanout_jobs_.add(static_cast<std::uint64_t>(launched));
    if (launched < count) {
      finish_phase(static_cast<std::int64_t>(count - launched));
    }
  }

  /// Decrement the phase latch by `n`; the worker that reaches zero runs
  /// `next` (nothing on the final phase). fetch_sub(acq_rel) makes every
  /// phase's writes visible to the thread running the next phase.
  void finish_phase(std::int64_t n, void (ShardedRun::*next)() = nullptr) {
    if (remaining_.fetch_sub(n, std::memory_order_acq_rel) == n) {
      if (next != nullptr) {
        (this->*next)();
      } else {
        deliver();
      }
    }
  }

  /// Record the first error. Delivery does NOT happen here: deliver() runs
  /// only after every latch drains, so a ready future always means the run
  /// has quiesced (no job still reads the borrowed input or the shared
  /// plane). The claim flag serializes the winner; error_ is fully written
  /// before the release store to failed_, and every path into deliver()
  /// acquire-loads failed_ (directly or through the latch), so the error
  /// is visible wherever it is reported.
  void fail(std::exception_ptr error) noexcept {
    if (error_claimed_.exchange(true, std::memory_order_relaxed)) return;
    error_ = std::move(error);
    failed_.store(true, std::memory_order_release);
  }

  void fail_shutdown() {
    fail(std::make_exception_ptr(
        PreconditionError("LabelingEngine shut down mid-shard")));
  }

  /// QoS gate, called at phase boundaries (launch / start_merge / resolve).
  /// Checking only between phases keeps the per-tile hot loops free of
  /// atomic loads; a shed shard still drains its latches and reaches
  /// deliver() like any other failure, so quiescence guarantees hold.
  void check_qos() {
    if (failed_.load(std::memory_order_acquire)) return;
    if (request_.cancel.cancel_requested()) {
      fail_qos(/*cancelled=*/true);
      return;
    }
    if (deadline_ms_.has_value() && timer_.elapsed_ms() >= *deadline_ms_) {
      fail_qos(/*cancelled=*/false);
    }
  }

  /// Claim the error slot with the QoS cause and bump the matching engine
  /// counter — but only for the claiming winner, so one shed shard counts
  /// once no matter how many phase boundaries re-observe the expiry.
  void fail_qos(bool cancelled) noexcept {
    if (error_claimed_.exchange(true, std::memory_order_relaxed)) return;
    if (cancelled) {
      engine_.jobs_cancelled_.fetch_add(1, std::memory_order_relaxed);
      error_ = std::make_exception_ptr(
          CancelledError("request cancelled mid-shard"));
    } else {
      engine_.jobs_shed_.fetch_add(1, std::memory_order_relaxed);
      error_ = std::make_exception_ptr(DeadlineExceededError(
          "deadline expired mid-shard; remaining phases shed"));
    }
    failed_.store(true, std::memory_order_release);
  }

  LabelingEngine& engine_;
  const LabelRequest request_;  // borrowed views; shard engaged
  const ShardOptions options_;
  const Connectivity connectivity_;  // effective (validated) connectivity
  const SeamMerger merger_;           // options_'s validated merge backend
  std::promise<LabelResponse> promise_;
  int cutoff_ = -1;      // request threshold as an integer cutoff; -1 unset
  std::optional<double> deadline_ms_;  // request deadline vs timer_, if any

  LabelResponse result_;                 // delivered through promise_
  LabelingEngine::ShardBuffer parents_;  // global union-find parents
  std::size_t parents_size_ = 0;         // image.size() + 1
  LabelingEngine::ShardCellBuffer cells_;  // feature cells (outputs.stats)
  std::vector<TileSpec> tiles_;
  std::vector<RunBuffer> tile_runs_;       // per-tile runs (pooled)
  TileGridShape grid_;                     // seam tile lookup
  std::optional<BandRenumber> renumber_;   // Phase III band steps

  // Per-job observability slots (disjoint by tile index; folded by
  // resolve() into result_.timings.counters after the merge latch).
  std::vector<std::uint64_t> tile_joins_;
  std::vector<std::uint64_t> merge_pair_slots_;
  std::vector<uf::UniteStats> merge_stat_slots_;
  WallTimer scan_queue_timer_;              // submit -> first scan pickup
  std::atomic<bool> queue_wait_claimed_{false};
  obs::Counter& fanout_jobs_ = obs::counter("shard_fanout_jobs_total");
  obs::Counter& quiesced_ = obs::counter("shards_quiesced_total");

  std::atomic<std::int64_t> remaining_{0};
  std::atomic<bool> error_claimed_{false};
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;
  WallTimer timer_;
};

void LabelingEngine::start_sharded(LabelRequest request,
                                   std::promise<LabelResponse> promise) {
  const ShardOptions& options = *request.shard;
  PAREMSP_REQUIRE(options.tile_rows >= 1 && options.tile_cols >= 1,
                  "shard tiles must be at least 1x1");
  // Shared request gate: the effective connectivity defaults exactly like
  // the worker path (request override, else the engine's configured
  // labeler default). The pipeline is validated against the algorithm it
  // actually runs — tiled PAREMSP over runs, which admits both
  // connectivities — so request errors match Labeler::run's exactly.
  const Connectivity connectivity = validate_request(
      request, Algorithm::ParemspTiled, config_.labeler.connectivity);
  // Construction validates the merge options (SeamMerger), so a rejected
  // request throws here, synchronously, before it counts as submitted.
  const auto run = std::make_shared<ShardedRun>(*this, std::move(request),
                                                connectivity,
                                                std::move(promise));
  shards_submitted_.fetch_add(1, std::memory_order_relaxed);
  run->start();
}

}  // namespace paremsp::engine
