// Fused connected-component analysis: per-label feature accumulation.
//
// The paper motivates labeling by what comes after it — character
// recognition, medical imaging, target detection all consume per-component
// features, not raw labels. Computing those features as a separate
// compute_stats() pass re-reads the entire label plane; FeatureCell lets
// the scan kernels accumulate them DURING the labeling scan instead, so the
// fused stats-request paths never touch the pixels a second time.
//
// The design mirrors the provisional-label machinery of the two-pass
// algorithms:
//
//   scan      every provisional label gets one FeatureCell, initialized at
//             its new-label event and updated once per pixel that receives
//             the label (FeatureAccumulator is the scan-kernel policy; the
//             cell array is indexed by provisional label, so concurrent
//             tile/chunk scans touch disjoint cells exactly like they touch
//             disjoint parent-array ranges);
//   merge     seam/boundary unions record which cells belong together in
//             the union-find — the cells themselves are not touched, so
//             the concurrent seam merge needs no accumulator locking;
//   flatten   once resolve/FLATTEN has turned parents[l] into the final
//             label of every issued provisional label l, fold_features
//             reduces the cells through that mapping in O(labels issued).
//
// Every quantity is a commutative, associative partial sum (pixel count,
// coordinate min/max, exact integer coordinate sums), so the fold order —
// and therefore the tile geometry, thread count, and union order — cannot
// change the result: fused output is value-identical to the post-pass
// compute_stats oracle (the metamorphic/differential suites assert it).
#pragma once

#include <cstdint>
#include <span>

#include "analysis/component_stats.hpp"
#include "common/types.hpp"

namespace paremsp::analysis {

/// Partial per-label feature sums. Mergeable: merge() is commutative and
/// associative, and a fresh cell is its identity element.
struct FeatureCell {
  std::int64_t area = 0;      // pixels accumulated so far
  Coord row_min = 0;          // bbox partial (valid once area > 0)
  Coord col_min = 0;
  Coord row_max = -1;
  Coord col_max = -1;
  std::int64_t row_sum = 0;   // exact centroid numerators
  std::int64_t col_sum = 0;

  /// Fold one pixel into the cell.
  void add_pixel(Coord r, Coord c) noexcept {
    if (area == 0) {
      row_min = row_max = r;
      col_min = col_max = c;
    } else {
      row_min = r < row_min ? r : row_min;
      row_max = r > row_max ? r : row_max;
      col_min = c < col_min ? c : col_min;
      col_max = c > col_max ? c : col_max;
    }
    ++area;
    row_sum += r;
    col_sum += c;
  }

  /// Fold one maximal horizontal run (row r, columns [col_begin, col_end))
  /// into the cell in O(1): the run-based scan layer's replacement for
  /// length-many add_pixel calls. The coordinate sums use the
  /// arithmetic-series closed form — sum of col_begin..col_end-1 is
  /// (col_begin + col_end - 1) * length / 2, an exact integer (the product
  /// of two consecutive-parity integers is even) — so a cell fed runs is
  /// bit-identical to the same cell fed its pixels one by one, and fused
  /// run stats stay value-identical to the post-pass oracle.
  void add_run(Coord r, Coord col_begin, Coord col_end) noexcept {
    const std::int64_t len = col_end - col_begin;
    if (area == 0) {
      row_min = row_max = r;
      col_min = col_begin;
      col_max = col_end - 1;
    } else {
      row_min = r < row_min ? r : row_min;
      row_max = r > row_max ? r : row_max;
      col_min = col_begin < col_min ? col_begin : col_min;
      col_max = col_end - 1 > col_max ? col_end - 1 : col_max;
    }
    area += len;
    row_sum += static_cast<std::int64_t>(r) * len;
    col_sum += (static_cast<std::int64_t>(col_begin) + (col_end - 1)) * len / 2;
  }

  /// Fold another cell into this one.
  void merge(const FeatureCell& other) noexcept {
    if (other.area == 0) return;
    if (area == 0) {
      *this = other;
      return;
    }
    area += other.area;
    row_min = other.row_min < row_min ? other.row_min : row_min;
    col_min = other.col_min < col_min ? other.col_min : col_min;
    row_max = other.row_max > row_max ? other.row_max : row_max;
    col_max = other.col_max > col_max ? other.col_max : col_max;
    row_sum += other.row_sum;
    col_sum += other.col_sum;
  }
};

/// Scan-kernel accumulation policy over a caller-owned cell array indexed
/// by provisional label. Cells are initialized lazily at new-label events
/// (fresh), never wholesale — the array's unused entries stay untouched, so
/// recycled/uninitialized storage is fine and no O(label-space) memset ever
/// runs. A scan writing labels in range (base, base+used] touches only
/// cells in that range, which is what makes concurrent tile scans safe on
/// one shared array.
class FeatureAccumulator {
 public:
  explicit FeatureAccumulator(std::span<FeatureCell> cells) noexcept
      : cells_(cells) {}

  /// New-label event: reset the cell (storage may hold stale contents).
  void fresh(Label l) noexcept { cells_[static_cast<std::size_t>(l)] = {}; }

  /// Pixel (r, c) received (new or copied) label l.
  void add(Label l, Coord r, Coord c) noexcept {
    cells_[static_cast<std::size_t>(l)].add_pixel(r, c);
  }

  /// Run (r, [col_begin, col_end)) received label l — the run-based scan
  /// layer's O(1)-per-run hook (FeatureCell::add_run).
  void add_run(Label l, Coord r, Coord col_begin, Coord col_end) noexcept {
    cells_[static_cast<std::size_t>(l)].add_run(r, col_begin, col_end);
  }

  [[nodiscard]] std::span<FeatureCell> cells() const noexcept {
    return cells_;
  }

 private:
  std::span<FeatureCell> cells_;
};

/// Reduce the provisional-label cells of one contiguous label range
/// (lo..hi, inclusive) into per-component ComponentInfo records:
/// components[final_of[l] - 1] absorbs cells[l]. `final_of` is the
/// resolved parent array after FLATTEN (parents[l] = final label of l),
/// `components` is sized num_components. O(hi - lo + 1), no pixel access.
void fold_features(std::span<const FeatureCell> cells,
                   std::span<const Label> final_of, Label lo, Label hi,
                   std::span<ComponentInfo> components);

/// Finish a fused-stats result: derive centroids from the exact integer
/// sums and stamp the 1-based labels. Requires every component to have
/// absorbed at least one pixel (throws PreconditionError otherwise — a
/// labeling claiming an empty component is broken, same contract as
/// compute_stats).
void finalize_components(std::span<ComponentInfo> components);

}  // namespace paremsp::analysis
