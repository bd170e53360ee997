// Per-worker reusable workspace for the batch labeling engine.
//
// Each engine worker owns one ScratchArena for its whole lifetime. The
// arena wraps the core LabelScratch (union-find parent storage, recycled
// label planes, auxiliary buffers — see core/label_scratch.hpp) and adds
// the engine-side accounting: jobs and pixels served. Label planes that
// clients hand back through LabelingEngine::recycle() go into its
// scratch's plane pool.
//
// Buffers grow once to the high-water-mark image size and are then reused
// allocation-free; ArenaStats::grow_count going flat is the observable
// signature (asserted by tests/test_engine.cpp).
//
// Threading: exactly one worker thread uses an arena's scratch at a time;
// the counters below are relaxed atomics so LabelingEngine::stats() can
// aggregate them from another thread mid-run.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/label_scratch.hpp"

namespace paremsp::engine {

/// Snapshot of one arena's accounting.
struct ArenaStats {
  std::uint64_t jobs = 0;            // jobs served by this worker
  std::int64_t pixels = 0;           // pixels labeled by this worker
  std::uint64_t grow_count = 0;      // scratch buffer (re)allocations
  std::uint64_t plane_reuses = 0;    // planes served without malloc
  std::size_t reserved_bytes = 0;    // bytes parked in the workspace
};

/// One worker's persistent workspace.
class ScratchArena {
 public:
  ScratchArena() = default;
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// The workspace handed to Labeler::run. Worker thread only.
  [[nodiscard]] LabelScratch& scratch() noexcept { return scratch_; }

  /// Record one served job (worker thread, after the run returns).
  void note_job(std::int64_t pixels) noexcept {
    jobs_.fetch_add(1, std::memory_order_relaxed);
    pixels_.fetch_add(pixels, std::memory_order_relaxed);
  }

  /// Consistent-enough snapshot for monitoring (relaxed reads; safe to
  /// call from a non-worker thread mid-run).
  [[nodiscard]] ArenaStats stats() const;

 private:
  LabelScratch scratch_;
  std::atomic<std::uint64_t> jobs_{0};
  std::atomic<std::int64_t> pixels_{0};
};

}  // namespace paremsp::engine
