// Reusable per-call workspace for the labelers.
//
// Every two-pass labeler needs the same transient storage: a union-find
// parent array sized by the provisional label space, an output label plane,
// and (for some algorithms) an auxiliary index buffer. Allocating these per
// run() call is fine for one-shot use but dominates wall clock when
// millions of small images stream through — glibc returns >128 KB blocks
// to the kernel on free, so every call re-faults every page.
//
// LabelScratch keeps those buffers alive across calls: each is grown to the
// high-water mark of the sizes seen and then reused allocation-free. The
// engine's ScratchArena (src/engine/scratch_arena.hpp) owns one per worker
// thread; Labeler::label() creates a throwaway one so the one-shot path is
// unchanged. A LabelScratch must not be used from two threads at once, but
// its grow/reuse counters are relaxed atomics so monitoring threads (the
// engine's stats snapshot) may read them concurrently.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

#include "analysis/feature_accumulator.hpp"
#include "common/types.hpp"
#include "core/runs.hpp"
#include "image/raster.hpp"

namespace paremsp {

/// Reusable labeling workspace. See file comment for the threading rules.
class LabelScratch {
 public:
  LabelScratch() = default;
  LabelScratch(const LabelScratch&) = delete;
  LabelScratch& operator=(const LabelScratch&) = delete;

  /// Union-find parent storage for n entries, grown once and reused.
  /// Contents are unspecified: labelers initialize entries as they issue
  /// provisional labels (RemEquiv::new_label writes p[l] = l). Growth
  /// does not zero the array either, so the pages of labels a sparse
  /// image never issues are never touched (for a huge raster that is most
  /// of its 4 bytes per pixel).
  [[nodiscard]] std::span<Label> parents(std::size_t n) {
    if (parents_size_ < n) {
      parents_ = std::make_unique_for_overwrite<Label[]>(n);
      reserved_bytes_.fetch_add((n - parents_size_) * sizeof(Label),
                                std::memory_order_relaxed);
      grows_.fetch_add(1, std::memory_order_relaxed);
      parents_size_ = n;
    }
    return {parents_.get(), n};
  }

  /// Auxiliary Label-typed buffer (BFS queues, merge worklists), same
  /// grow-once contract as parents(). Growing preserves the existing
  /// elements (flood fill relies on this to extend a live queue).
  [[nodiscard]] std::span<Label> aux(std::size_t n) { return grown(aux_, n); }

  /// Per-provisional-label feature cells for the fused stats-request
  /// paths, indexed like parents(), with the same grow-once contract:
  /// contents are unspecified and growth initializes nothing.
  /// FeatureAccumulator::fresh writes each cell at its new-label event, and
  /// readers visit only issued labels, so neither a request nor a stream
  /// slab pays 40 bytes per pixel before its scan — the pages of labels a
  /// scan never issues are never touched. FeatureCell is an
  /// implicit-lifetime aggregate, so raw storage holds its objects without
  /// a constructor run (tests/test_analysis.cpp pre-fills the cells with
  /// garbage to hold every stats path to this contract).
  [[nodiscard]] std::span<analysis::FeatureCell> feature_cells(std::size_t n) {
    static_assert(std::is_aggregate_v<analysis::FeatureCell> &&
                  std::is_trivially_copyable_v<analysis::FeatureCell> &&
                  std::is_trivially_destructible_v<analysis::FeatureCell>);
    if (feature_cells_size_ < n) {
      feature_cells_.reset(static_cast<analysis::FeatureCell*>(
          ::operator new(n * sizeof(analysis::FeatureCell))));
      reserved_bytes_.fetch_add(
          (n - feature_cells_size_) * sizeof(analysis::FeatureCell),
          std::memory_order_relaxed);
      grows_.fetch_add(1, std::memory_order_relaxed);
      feature_cells_size_ = n;
    }
    return {feature_cells_.get(), n};
  }

  /// Per-chunk/tile run buffers for the run-based scan layer
  /// (core/runs.hpp): buffer i belongs to chunk/tile i, so concurrent
  /// scans never share one. The vector is grown once to the largest
  /// tile-count seen and each RunBuffer keeps its own high-water-mark
  /// storage, so a warm scratch extracts runs allocation-free. Run
  /// storage grows inside RunBuffer::extract, off this class's books, so
  /// reserved_bytes() counts it only as of the last book_run_buffers().
  [[nodiscard]] std::span<RunBuffer> run_buffers(std::size_t n) {
    if (run_buffers_.size() < n) {
      run_buffers_.resize(n);
      grows_.fetch_add(1, std::memory_order_relaxed);
    }
    return {run_buffers_.data(), n};
  }

  /// Re-book the run buffers' storage (RunBuffer::capacity_bytes) in
  /// reserved_bytes(). The run pipeline calls it after its scan, on the
  /// thread using this scratch — the only writer of the booked total.
  void book_run_buffers() noexcept {
    std::size_t bytes = 0;
    for (const RunBuffer& runs : run_buffers_) bytes += runs.capacity_bytes();
    // Unsigned wrap makes this a signed delta.
    reserved_bytes_.fetch_add(bytes - run_buffer_bytes_,
                              std::memory_order_relaxed);
    run_buffer_bytes_ = bytes;
  }

  /// How acquire_plane prepares a recycled plane's contents.
  enum class PlaneInit {
    Zeroed,  // indistinguishable from a fresh LabelImage(rows, cols)
    Dirty,   // unspecified contents; for labelers writing every pixel
  };

  /// A rows x cols label plane, recycling pooled capacity when available.
  /// Ownership transfers to the caller (it becomes LabelResponse::labels);
  /// hand planes back through recycle_plane() to keep the pool warm.
  /// Request PlaneInit::Dirty only when the algorithm overwrites every
  /// pixel (the scan kernels write background zeros themselves); labelers
  /// that read the plane as a visited-marker (flood fill) need Zeroed.
  [[nodiscard]] LabelImage acquire_plane(Coord rows, Coord cols,
                                         PlaneInit init = PlaneInit::Zeroed) {
    if (!planes_.empty()) {
      LabelImage plane = std::move(planes_.back());
      planes_.pop_back();
      reserved_bytes_.fetch_sub(plane.capacity() * sizeof(Label),
                                std::memory_order_relaxed);
      if (plane.capacity() <
          static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols)) {
        // Too small: resize reallocates, so this is a grow, not a reuse.
        grows_.fetch_add(1, std::memory_order_relaxed);
      } else {
        plane_reuses_.fetch_add(1, std::memory_order_relaxed);
      }
      if (init == PlaneInit::Zeroed) {
        plane.resize(rows, cols);
      } else {
        plane.resize_for_overwrite(rows, cols);
      }
      return plane;
    }
    grows_.fetch_add(1, std::memory_order_relaxed);
    return LabelImage(rows, cols);
  }

  /// Return a no-longer-needed label plane for reuse by acquire_plane().
  void recycle_plane(LabelImage&& plane) {
    if (planes_.size() < kMaxPooledPlanes) {
      reserved_bytes_.fetch_add(plane.capacity() * sizeof(Label),
                                std::memory_order_relaxed);
      planes_.push_back(std::move(plane));
    }
  }

  /// Times any buffer had to allocate (stabilizes once the high-water mark
  /// image size has been seen; the engine tests assert exactly that).
  [[nodiscard]] std::uint64_t grow_count() const noexcept {
    return grows_.load(std::memory_order_relaxed);
  }

  /// Times acquire_plane() was served from the pool instead of malloc.
  [[nodiscard]] std::uint64_t plane_reuse_count() const noexcept {
    return plane_reuses_.load(std::memory_order_relaxed);
  }

  /// Bytes currently held by the workspace (capacity, not live use).
  /// Tracked in an atomic so monitoring threads can read it mid-run.
  [[nodiscard]] std::size_t reserved_bytes() const noexcept {
    return reserved_bytes_.load(std::memory_order_relaxed);
  }

 private:
  // One spare plane per algorithm in flight is plenty; a deeper pool only
  // hoards memory (the engine keeps its own shared pool for recycling).
  static constexpr std::size_t kMaxPooledPlanes = 2;

  template <class T>
  [[nodiscard]] std::span<T> grown(std::vector<T>& buffer, std::size_t n) {
    if (buffer.size() < n) {
      const std::size_t before = buffer.capacity();
      buffer.resize(n);
      reserved_bytes_.fetch_add((buffer.capacity() - before) * sizeof(T),
                                std::memory_order_relaxed);
      grows_.fetch_add(1, std::memory_order_relaxed);
    }
    return {buffer.data(), n};
  }

  std::unique_ptr<Label[]> parents_;
  std::size_t parents_size_ = 0;
  std::vector<Label> aux_;
  struct ReleaseCells {
    void operator()(analysis::FeatureCell* cells) const noexcept {
      ::operator delete(cells);
    }
  };
  std::unique_ptr<analysis::FeatureCell, ReleaseCells> feature_cells_;
  std::size_t feature_cells_size_ = 0;
  std::vector<RunBuffer> run_buffers_;
  std::size_t run_buffer_bytes_ = 0;  // run storage booked in reserved_bytes_
  std::vector<LabelImage> planes_;
  std::atomic<std::uint64_t> grows_{0};
  std::atomic<std::uint64_t> plane_reuses_{0};
  std::atomic<std::size_t> reserved_bytes_{0};
};

}  // namespace paremsp
