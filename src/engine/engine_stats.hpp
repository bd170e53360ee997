// Throughput / latency instrumentation for the batch labeling engine.
//
// Workers call record_completion() once per job; stats() folds the
// counters plus every worker arena's accounting into one snapshot. The
// latency distributions are kept in bounded rings (the most recent
// kLatencyWindow samples) so a long-running engine serving millions of
// requests neither grows without bound nor pays more than an O(window)
// sort per snapshot; percentiles come from common/stats.hpp.
//
// OK and FAILED completions go into SEPARATE windows: a client whose
// requests throw (validation errors fail fast, in microseconds) would
// otherwise silently drag p99 down — or a pathological failure path drag
// it up — and the tail of successful requests is the number operators
// alert on. Failed jobs get their own mean/p99/max instead of vanishing.
//
// Throughput is measured over the active window [first submission, last
// completion] rather than since construction, so an engine that sat idle
// before the burst still reports the burst's real images_per_sec.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/stats.hpp"

namespace paremsp::engine {

/// One consistent view of the engine's counters, exposed by
/// LabelingEngine::stats().
struct EngineStatsSnapshot {
  // --- volume --------------------------------------------------------------
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_failed = 0;  // completed with an exception
  std::int64_t pixels_labeled = 0;

  // --- queue backlog (filled by the engine from its JobQueue) --------------
  std::size_t queue_depth = 0;       // jobs waiting right now
  std::size_t queue_high_water = 0;  // deepest the queue has ever been
  std::size_t queue_capacity = 0;

  // --- throughput over the active window -----------------------------------
  double elapsed_s = 0.0;  // first submission -> last completion
  double images_per_sec = 0.0;
  double mpixels_per_sec = 0.0;

  // --- per-request latency (submit -> result ready), milliseconds ----------
  // Successful jobs only; failed completions are windowed separately below
  // so a throwing client can't skew the operational tail either way.
  double latency_mean_ms = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p90_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_max_ms = 0.0;

  // --- failed-job latency (submit -> exception delivered) ------------------
  double latency_failed_mean_ms = 0.0;
  double latency_failed_p99_ms = 0.0;
  double latency_failed_max_ms = 0.0;

  // --- workspace accounting (summed over worker arenas) --------------------
  std::size_t scratch_reserved_bytes = 0;
  std::uint64_t scratch_grow_count = 0;
  std::uint64_t plane_reuses = 0;

  // --- sharded huge-image path ----------------------------------------------
  std::uint64_t shards_submitted = 0;      // sharded requests accepted
  std::uint64_t shards_completed = 0;      // shard promises fulfilled OK
  // Tile pieces sharded requests ran: one scan, one seam-merge and one
  // rewrite piece per tile.
  std::uint64_t shard_tasks_completed = 0;

  // --- QoS (deadline / cancellation, core/qos.hpp) --------------------------
  // Both count toward jobs_failed too: a shed job IS a failed completion
  // (its future throws); these break the failure down by cause.
  std::uint64_t jobs_shed = 0;       // DeadlineExceededError deliveries
  std::uint64_t jobs_cancelled = 0;  // CancelledError deliveries

  // --- streaming slab sessions (engine/stream_session.hpp) -----------------
  std::uint64_t stream_sessions_opened = 0;
  std::uint64_t stream_sessions_completed = 0;  // finish() resolved OK
  std::uint64_t stream_slabs_completed = 0;
  // Cumulative open components observed at slab seams — the size of the
  // identity state streaming carries; divide by stream_slabs_completed
  // for the mean seam population.
  std::uint64_t stream_carried_components = 0;
};

/// Thread-safe recorder behind the snapshot.
class EngineStats {
 public:
  using Clock = std::chrono::steady_clock;

  /// Called by submit() with the job's enqueue timestamp, before the
  /// queue push (so the throughput window opens no later than the first
  /// job starts). If the push then fails, record_submission_aborted()
  /// takes the count back.
  void record_submission(Clock::time_point at) {
    std::lock_guard lock(mutex_);
    if (submitted_ == 0 || at < first_submit_) first_submit_ = at;
    ++submitted_;
  }

  /// Undo one record_submission() whose job was never accepted (the queue
  /// was closed between the stamp and the push).
  void record_submission_aborted() {
    std::lock_guard lock(mutex_);
    --submitted_;
  }

  /// Called by a worker once a job's promise is fulfilled — with the
  /// measured latency whether the job succeeded or threw.
  void record_completion(double latency_ms, std::int64_t pixels,
                         bool failed) {
    std::lock_guard lock(mutex_);
    ++completed_;
    if (failed) ++failed_;
    pixels_ += pixels;
    last_complete_ = Clock::now();
    (failed ? failed_window_ : ok_window_).record(latency_ms);
  }

  /// Volume/throughput/latency part of the snapshot (the engine fills in
  /// the arena and queue fields).
  [[nodiscard]] EngineStatsSnapshot snapshot() const {
    EngineStatsSnapshot s;
    std::vector<double> ok_samples;
    std::vector<double> failed_samples;
    double ok_total = 0.0;
    double failed_total = 0.0;
    std::uint64_t ok_count = 0;
    std::uint64_t failed_count = 0;
    {
      std::lock_guard lock(mutex_);
      s.jobs_submitted = submitted_;
      s.jobs_completed = completed_;
      s.jobs_failed = failed_;
      s.pixels_labeled = pixels_;
      if (completed_ > 0) {
        s.elapsed_s =
            std::chrono::duration<double>(last_complete_ - first_submit_)
                .count();
      }
      ok_samples = ok_window_.samples;
      ok_total = ok_window_.total_ms;
      ok_count = ok_window_.count;
      s.latency_max_ms = ok_window_.max_ms;
      failed_samples = failed_window_.samples;
      failed_total = failed_window_.total_ms;
      failed_count = failed_window_.count;
      s.latency_failed_max_ms = failed_window_.max_ms;
    }
    // Sort outside the lock: a monitoring thread sorting the windows must
    // not stall workers finishing jobs.
    if (s.jobs_completed > 0 && s.elapsed_s > 0.0) {
      s.images_per_sec = static_cast<double>(s.jobs_completed) / s.elapsed_s;
      s.mpixels_per_sec =
          static_cast<double>(s.pixels_labeled) / 1e6 / s.elapsed_s;
    }
    if (ok_count > 0) {
      s.latency_mean_ms = ok_total / static_cast<double>(ok_count);
      std::sort(ok_samples.begin(), ok_samples.end());
      s.latency_p50_ms = percentile_sorted(ok_samples, 50.0);
      s.latency_p90_ms = percentile_sorted(ok_samples, 90.0);
      s.latency_p99_ms = percentile_sorted(ok_samples, 99.0);
    }
    if (failed_count > 0) {
      s.latency_failed_mean_ms =
          failed_total / static_cast<double>(failed_count);
      std::sort(failed_samples.begin(), failed_samples.end());
      s.latency_failed_p99_ms = percentile_sorted(failed_samples, 99.0);
    }
    return s;
  }

 private:
  /// Bounded ring of the most recent `capacity` samples, plus lifetime
  /// mean/max accumulators (the mean covers ALL completions, not just the
  /// windowed ones).
  struct LatencyWindow {
    explicit LatencyWindow(std::size_t capacity) : capacity(capacity) {}

    void record(double latency_ms) {
      ++count;
      total_ms += latency_ms;
      max_ms = std::max(max_ms, latency_ms);
      if (samples.size() < capacity) {
        samples.push_back(latency_ms);
      } else {
        samples[next_slot] = latency_ms;
      }
      next_slot = (next_slot + 1) % capacity;
    }

    const std::size_t capacity;
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double max_ms = 0.0;
    std::vector<double> samples;
    std::size_t next_slot = 0;
  };

  // 8 Ki ok-samples estimate p99 from ~80 tail values while keeping the
  // snapshot's copy-under-lock at 64 KB (~microseconds), so a monitor
  // polling stats() cannot stall workers in record_completion(). Failures
  // should be rare; a 1 Ki window is plenty for their p99.
  static constexpr std::size_t kLatencyWindow = 1 << 13;
  static constexpr std::size_t kFailedLatencyWindow = 1 << 10;

  mutable std::mutex mutex_;
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::int64_t pixels_ = 0;
  Clock::time_point first_submit_{};
  Clock::time_point last_complete_{};
  LatencyWindow ok_window_{kLatencyWindow};
  LatencyWindow failed_window_{kFailedLatencyWindow};
};

}  // namespace paremsp::engine
