// Run representation + run-merging scan kernels — the run-based twin of
// the pixel scan layer (scan_one_line.hpp / scan_two_line.hpp).
//
// A *run* is a maximal horizontal stretch of foreground pixels in one row.
// Run-based CCL (He 2008; Lemaitre & Lacassagne 2020) replaces the
// per-pixel decision tree with three word-level steps:
//
//   extract   RowBits (image/row_bits.hpp) packs each row into 64-pixel
//             words; countr_zero / countr_one walk the words and emit the
//             maximal runs — no per-pixel branch ever executes;
//   merge     each run takes the label of its first vertically-overlapping
//             run in the previous row and records ONE equivalence per
//             additional overlapping run pair through the same
//             equiv_policies the pixel kernels use (RemEquiv & friends) —
//             union-find traffic scales with run pairs, not pixels;
//   rewrite   after FLATTEN, resolved labels expand back to the raster as
//             std::fill-width row segments (core/tiled_phases.hpp).
//
// The overlap window is the only place connectivity enters: 8-connectivity
// widens the previous-row window by one column on each side (diagonal
// touch), 4-connectivity is direct overlap. That makes the run kernels the
// first scan layer in the repo supporting BOTH connectivities through one
// code path.
//
// One kernel, scan_runs, twins both pixel masks (ARUN's two-line 8-mask,
// CCLREMSP's one-line tree): in the run domain they collapse to the same
// overlap walk — a run *is* the d/e "continue left" chain the pixel masks
// chase — so the 8-connected scan is window 1 and the 4-connected mask
// {b, d} is window 0, whose d-neighbor is the run itself.
//
// Label-minima invariant (DESIGN.md §3, §8): the 8-connected scan issues
// labels in the sequential TWO-LINE visit order (row pairs, column by
// column, upper before lower — merge_row_pair_runs) and the 4-connected
// scan in row-major run order, so under REM every component's root is its
// first run in the SAME order the canonical renumber walks
// (BandRenumber) — which is what lets the rle labelers stay bit-identical
// to sequential AREMSP, and lets pair-aligned tile bands number components
// by walking each unit's fresh labels (RunBuffer::issued_through) instead
// of their runs.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/contracts.hpp"
#include "common/types.hpp"
#include "image/connectivity.hpp"
#include "image/row_bits.hpp"
#include "image/view.hpp"

namespace paremsp {

/// One maximal horizontal foreground run: the half-open column range
/// [col_begin, col_end) of one row, carrying its provisional label once
/// the scan has assigned one. The row is implied by where the run sits in
/// its RunBuffer (RunBuffer::row), which keeps a run at 12 bytes.
struct Run {
  Coord col_begin = 0;  // first foreground column (inclusive)
  Coord col_end = 0;    // one past the last foreground column
  Label label = 0;      // provisional label (0 until the merge step)

  [[nodiscard]] Coord length() const noexcept { return col_end - col_begin; }
  friend bool operator==(const Run&, const Run&) = default;
};

/// Per-row run storage for a rectangle of rows, pooled in LabelScratch
/// (one per chunk/tile so concurrent scans never share one). Runs are
/// appended row by row in increasing row order and stay sorted by
/// col_begin within each row; row(r) is an O(1) slice via offsets.
///
/// The scan also records, per row, how many labels the rectangle had
/// issued when it finished the scan UNIT holding that row
/// (issued_through): a unit is one row for 4-connectivity and one
/// two-line row pair for 8-connectivity, so both rows of a pair read the
/// pair's value. The fresh labels of a unit spanning rows [f, l] are then
/// the contiguous range (issued_through(f - 1), issued_through(l)] above
/// the rectangle's base, which is what lets the canonical renumber
/// (BandRenumber) walk labels instead of runs. O(rows), pooled.
class RunBuffer {
 public:
  RunBuffer() = default;
  RunBuffer(RunBuffer&&) noexcept = default;
  RunBuffer& operator=(RunBuffer&&) noexcept = default;

  /// Extract the maximal foreground runs of the rectangle rows
  /// [row_begin, row_end) x cols [col_begin, col_end) of `image`,
  /// replacing any previous contents. Column coordinates in the emitted
  /// runs are absolute image columns. Storage (runs, offsets, the RowBits
  /// words) is grown once and reused allocation-free afterwards.
  /// `threshold` >= 0 treats `image` as GRAYSCALE and extracts runs of
  /// pixels > threshold via the fused encoder (RowBits::encode_threshold)
  /// — no intermediate binary plane; -1 is the plain binary mode
  /// (foreground = nonzero).
  void extract(ConstImageView image, Coord row_begin, Coord row_end,
               Coord col_begin, Coord col_end, int threshold = -1);

  /// Runs of image row r (requires row_begin() <= r < row_end()).
  [[nodiscard]] std::span<Run> row(Coord r) noexcept {
    const auto i = static_cast<std::size_t>(r - row_begin_);
    return {runs_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }
  [[nodiscard]] std::span<const Run> row(Coord r) const noexcept {
    const auto i = static_cast<std::size_t>(r - row_begin_);
    return {runs_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }

  /// Labels issued through the unit holding row r, counted from the
  /// rectangle's base (row_begin() - 1 <= r < row_end(); row_begin() - 1
  /// reads 0). Written by scan_runs; 0 for rows no scan has reached.
  [[nodiscard]] Label issued_through(Coord r) const noexcept {
    return issued_[static_cast<std::size_t>(r - row_begin_) + 1];
  }
  /// Record `used` as issued_through(r) (scan_runs, after each unit).
  void set_issued_through(Coord r, Label used) noexcept {
    issued_[static_cast<std::size_t>(r - row_begin_) + 1] = used;
  }

  /// All runs of the rectangle, row-major, col-sorted within each row.
  [[nodiscard]] std::span<const Run> all() const noexcept { return runs_; }

  [[nodiscard]] Coord row_begin() const noexcept { return row_begin_; }
  [[nodiscard]] Coord row_end() const noexcept { return row_end_; }
  [[nodiscard]] std::size_t size() const noexcept { return runs_.size(); }

  /// Bytes held by the buffer's pooled storage (capacity, not live use):
  /// runs, row offsets, issued counts and the row encoder's words.
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return runs_.capacity() * sizeof(Run) +
           offsets_.capacity() * sizeof(std::size_t) +
           issued_.capacity() * sizeof(Label) + bits_.capacity_bytes();
  }

 private:
  std::vector<Run> runs_;
  std::vector<std::size_t> offsets_;  // size (row_end - row_begin) + 1
  std::vector<Label> issued_;         // [0] is row_begin - 1, then per row
  Coord row_begin_ = 0;
  Coord row_end_ = 0;
  RowBits bits_;  // encoder scratch, pooled with the buffer
};

/// Merge step for row `r`: assign every run in `cur` (col-sorted, labels
/// unset) a label from the previous row's runs, recording one equivalence
/// per overlapping run pair beyond the first through `eq`, or a fresh
/// label when nothing overlaps. `window` is the vertical-adjacency slack:
/// 1 for 8-connectivity (diagonal touch), 0 for 4-connectivity. `sink`
/// receives fresh(label) at new-label events and add_run(label, ...) once
/// per run — the fused-analysis hook (arithmetic-series coordinate sums).
/// Two-pointer walk: O(|cur| + |prev| + overlapping pairs).
template <class Equiv, class FeatureSink>
void merge_row_runs(std::span<Run> cur, std::span<const Run> prev, Coord r,
                    Coord window, Equiv& eq, FeatureSink& sink) {
  std::size_t j = 0;
  for (Run& run : cur) {
    // prev[j] is 8/4-adjacent to `run` iff it has a pixel in columns
    // [run.col_begin - window, run.col_end - 1 + window]; rearranged to
    // additions so column 0 never underflows.
    while (j < prev.size() && prev[j].col_end + window <= run.col_begin) ++j;
    Label label = 0;
    for (std::size_t k = j;
         k < prev.size() && prev[k].col_begin < run.col_end + window; ++k) {
      label = label == 0 ? eq.copy(prev[k].label)
                         : eq.merge(label, prev[k].label);
    }
    if (label == 0) {
      label = eq.new_label();
      sink.fresh(label);
    }
    run.label = label;
    sink.add_run(label, r, run.col_begin, run.col_end);
  }
}

/// Two-line merge step for the ROW PAIR (r, r + 1) (8-connectivity):
/// visit the upper and lower rows' runs merged by (col_begin, upper first
/// on ties) — the sequential two-line visit order — assigning labels as
/// merge_row_runs would. `prev` is the row ABOVE the pair (fully labeled
/// by the previous pair); the lower row is two rows away from it and
/// never adjacent. Issuing labels in this order makes every fresh-label
/// event coincide with a component's two-line first appearance, so the
/// canonical renumber (BandRenumber) walks a pair-aligned band's fresh
/// labels pair by pair instead of its runs.
///
/// Within the pair, the LATER-visited run of an adjacent (upper, lower)
/// pair records the equivalence, and at most one earlier-visited run of
/// the other row can be adjacent to it — the most recently visited one:
/// were an other-row run o adjacent but a second other-row run o2 visited
/// between o and the current run x, then o2.col_begin >= o.col_end + 1
/// (maximal runs are separated) and o2.col_begin <= x.col_begin (visit
/// order), contradicting adjacency x.col_begin <= o.col_end. Hence the
/// single last_upper/last_lower probe replaces an inner overlap loop.
template <class Equiv, class FeatureSink>
void merge_row_pair_runs(std::span<Run> upper, std::span<Run> lower,
                         std::span<const Run> prev, Coord r, Equiv& eq,
                         FeatureSink& sink) {
  const Run* last_upper = nullptr;
  const Run* last_lower = nullptr;
  std::size_t u = 0;
  std::size_t l = 0;
  std::size_t j = 0;
  while (u < upper.size() || l < lower.size()) {
    const bool take_upper =
        l >= lower.size() ||
        (u < upper.size() && upper[u].col_begin <= lower[l].col_begin);
    if (take_upper) {
      Run& run = upper[u++];
      Label label = 0;
      // Window-1 walk over the row above the pair (cf. merge_row_runs).
      while (j < prev.size() && prev[j].col_end + 1 <= run.col_begin) ++j;
      for (std::size_t k = j;
           k < prev.size() && prev[k].col_begin < run.col_end + 1; ++k) {
        label = label == 0 ? eq.copy(prev[k].label)
                           : eq.merge(label, prev[k].label);
      }
      if (last_lower != nullptr && run.col_begin <= last_lower->col_end) {
        label = label == 0 ? eq.copy(last_lower->label)
                           : eq.merge(label, last_lower->label);
      }
      if (label == 0) {
        label = eq.new_label();
        sink.fresh(label);
      }
      run.label = label;
      sink.add_run(label, r, run.col_begin, run.col_end);
      last_upper = &run;
    } else {
      Run& run = lower[l++];
      Label label;
      if (last_upper != nullptr && run.col_begin <= last_upper->col_end) {
        label = eq.copy(last_upper->label);
      } else {
        label = eq.new_label();
        sink.fresh(label);
      }
      run.label = label;
      sink.add_run(label, r + 1, run.col_begin, run.col_end);
      last_lower = &run;
    }
  }
}

/// Record one unite() per 8/4-adjacent run pair between two already
/// labeled rows (seam merging between chunks/tiles). Branch-reduced
/// min-end-advance sweep: extend BOTH runs' ends by `window` — adjacency
/// becomes plain interval overlap, and the extended intervals stay
/// disjoint within each row (maximal runs are separated by >= 1 column
/// and window <= 1), so the classic two-pointer intersection sweep
/// enumerates every adjacent pair exactly once with no inner loop — one
/// predictable advance per iteration instead of a data-dependent rescan.
template <class UniteFn>
void unite_overlapping_runs(std::span<const Run> cur,
                            std::span<const Run> prev, Coord window,
                            UniteFn&& unite) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < cur.size() && j < prev.size()) {
    const Coord ae = cur[i].col_end + window;
    const Coord be = prev[j].col_end + window;
    if (cur[i].col_begin < be && prev[j].col_begin < ae) {
      unite(cur[i].label, prev[j].label);
    }
    i += static_cast<std::size_t>(ae <= be);
    j += static_cast<std::size_t>(be <= ae);
  }
}

/// Overlap window for a connectivity (the one place it enters the run
/// kernels): 8-connectivity admits diagonal touch, widening the
/// previous-row window by one column on each side.
[[nodiscard]] constexpr Coord run_overlap_window(
    Connectivity connectivity) noexcept {
  return connectivity == Connectivity::Eight ? 1 : 0;
}

/// Run-based Scan Phase over the rectangle rows [row_begin, row_end) x
/// cols [col_begin, col_end): extract runs, then merge them against the
/// previous row. The window-1 (8-connected) scan merges in TWO-LINE ROW
/// PAIRS so labels are issued in the sequential visit order
/// (merge_row_pair_runs); window 0 keeps the row-major walk, whose
/// issuance is already raster-canonical. Rows outside the rectangle count
/// as background (chunking/tiling contract of the pixel kernels); the
/// suppressed cross-boundary adjacencies are restored by the run seam
/// merges. `threshold` >= 0 scans a grayscale image through the fused
/// pixel > threshold encoder (see RunBuffer::extract). Records
/// RunBuffer::issued_through after each unit (row, or row pair) and
/// returns the number of provisional labels issued through `eq`.
template <class Equiv, class FeatureSink>
Label scan_runs(ConstImageView image, RunBuffer& runs, Equiv& eq,
                FeatureSink& sink, Coord window, Coord row_begin,
                Coord row_end, Coord col_begin, Coord col_end,
                int threshold = -1) {
  runs.extract(image, row_begin, row_end, col_begin, col_end, threshold);
  std::span<const Run> prev{};
  if (window == 1) {
    for (Coord r = row_begin; r < row_end; r += 2) {
      const std::span<Run> upper = runs.row(r);
      const std::span<Run> lower =
          r + 1 < row_end ? runs.row(r + 1) : std::span<Run>{};
      merge_row_pair_runs(upper, lower, prev, r, eq, sink);
      runs.set_issued_through(r, eq.used());
      if (r + 1 < row_end) runs.set_issued_through(r + 1, eq.used());
      prev = lower;  // the next pair's row above (unused after the last)
    }
    return eq.used();
  }
  for (Coord r = row_begin; r < row_end; ++r) {
    const std::span<Run> cur = runs.row(r);
    merge_row_runs(cur, prev, r, window, eq, sink);
    runs.set_issued_through(r, eq.used());
    prev = cur;
  }
  return eq.used();
}

}  // namespace paremsp
