// Composable phases of 2-D tiled run-based AREMSP labeling.
//
// The tiled algorithm (a 2-D generalization of the paper's Algorithm 7)
// decomposes into five independently schedulable steps:
//
//   1. make_tile_grid           — partition the image into a row-major tile
//                                 grid with disjoint provisional-label
//                                 ranges;
//   2. scan_tile                — extract the tile's runs and merge them row
//                                 against row (core/runs.hpp); rows and
//                                 columns outside the tile read as
//                                 background;
//   3. merge_run_seams          — re-establish the adjacencies suppressed at
//                                 one tile's top/left seams through the
//                                 caller's union (Algorithm 8's
//                                 uf::seam_unite, or sequential REM), one
//                                 union per adjacent boundary-run pair;
//   4. BandRenumber             — FLATTEN every tile's used label range,
//                                 then renumber components into the
//                                 sequential scan's canonical order so the
//                                 result is bit-identical to sequential
//                                 AREMSP (8-conn) and CCLREMSP (4-conn) for
//                                 EVERY tile geometry; four per-band steps
//                                 (flatten, offsets, number, finalize), all
//                                 but the O(bands) offsets concurrent across
//                                 bands. resolve_final_run_labels runs them
//                                 in a serial loop;
//   5. rewrite_run_labels       — expand the resolved run labels into the
//                                 output raster, the only write to it.
//
// One pipeline composes these pieces: label_runs_impl
// (core/rle_labelers.cpp, one parallel_for per phase), which the rle
// labelers, the engine's sharded requests and every stream slab run.
// Nothing here starts a thread. Why the renumber makes any grid
// bit-identical, and why its bands never race, is argued at
// BandRenumber and in DESIGN.md §8.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/feature_accumulator.hpp"
#include "common/types.hpp"
#include "core/runs.hpp"
#include "image/connectivity.hpp"
#include "image/view.hpp"

namespace paremsp {

/// One tile of the grid: the half-open pixel rectangle
/// [row_begin, row_end) x [col_begin, col_end) and its provisional-label
/// range (base, base + used].
struct TileSpec {
  Coord row_begin = 0;
  Coord row_end = 0;
  Coord col_begin = 0;
  Coord col_end = 0;
  Label base = 0;  // labels issued in this tile exceed base (prefix sum)
  Label used = 0;  // labels issued by scan_tile (filled in by the caller)

  [[nodiscard]] std::int64_t pixels() const noexcept {
    return static_cast<std::int64_t>(row_end - row_begin) *
           (col_end - col_begin);
  }
};

/// Partition rows x cols into a row-major grid of tile_rows x tile_cols
/// tiles (edge tiles clipped). Bases are prefix sums of tile pixel counts,
/// so label ranges are disjoint and increase in row-major tile order —
/// so BandRenumber's bands own increasing label ranges. Any tile size >= 1
/// works (down to 1-pixel tiles); oversize tiles degenerate to one tile,
/// which has no seams and whose renumber collapses to label order.
/// Throws PreconditionError when rows * cols + 1 does not fit Label: the
/// pixel-count bases would overflow.
[[nodiscard]] std::vector<TileSpec> make_tile_grid(Coord rows, Coord cols,
                                                   Coord tile_rows,
                                                   Coord tile_cols);

/// Row-major shape of a make_tile_grid() result: `tile_rows`/`tile_cols`
/// are the uniform strides (edge tiles may be clipped smaller), so the
/// tile containing pixel (r, c) is (r / tile_rows, c / tile_cols).
struct TileGridShape {
  Coord grid_rows = 0;
  Coord grid_cols = 0;
  Coord tile_rows = 1;
  Coord tile_cols = 1;
};

/// Derive the grid shape back from a row-major TileSpec list.
[[nodiscard]] TileGridShape tile_grid_shape(std::span<const TileSpec> tiles);

/// Phase I for one tile: extract the tile's maximal horizontal runs into
/// `runs` (bit-packed RowBits words, core/runs.hpp) and merge them row
/// against row, issuing provisional labels above tile.base into
/// `parents`. Nothing is written to any label plane — the runs CARRY the
/// labels until rewrite_run_labels expands them. Both connectivities
/// route through the one kernel (the overlap window is the only
/// difference). Thread-safe across distinct tiles: disjoint label
/// ranges, disjoint buffers. Returns the number of labels issued (the
/// caller stores it in tile.used); `joins`, when set, accumulates the
/// scan's unions (see RemEquiv) — pass a per-tile slot to fill
/// PhaseCounters::scan_unions race-free. `threshold` >= 0 scans a
/// GRAYSCALE image through the fused pixel > threshold encoder
/// (RunBuffer::extract) — the im2bw fusion; -1 is the plain binary mode.
[[nodiscard]] Label scan_tile(ConstImageView image, std::span<Label> parents,
                              const TileSpec& tile, RunBuffer& runs,
                              Connectivity connectivity,
                              std::uint64_t* joins = nullptr,
                              int threshold = -1);

/// Fused-analysis variant: every run is additionally folded into `cells`
/// (indexed by provisional label) in O(1) via the arithmetic-series
/// coordinate sums (FeatureCell::add_run), value-identical to per-pixel
/// accumulation. A tile scan touches only cells in its own label range,
/// so concurrent tiles share one cell array race-free, like `parents`.
[[nodiscard]] Label scan_tile(ConstImageView image, std::span<Label> parents,
                              const TileSpec& tile, RunBuffer& runs,
                              Connectivity connectivity,
                              std::span<analysis::FeatureCell> cells,
                              std::uint64_t* joins = nullptr,
                              int threshold = -1);

/// Phase II for tile `t`: feed every 4/8-adjacency crossing the tile's
/// top and left seams to `unite(Label, Label)`, operating on the BOUNDARY
/// RUNS of adjacent tiles — one unite per overlapping run pair, instead
/// of one per seam pixel. Covering top + left seams over all tiles covers
/// every seam exactly once:
///
///   top seam   this tile's first-row runs against the up neighbor's
///              last-row runs (two-pointer overlap walk, window widened
///              by 1 column for 8-connectivity), plus the up-left /
///              up-right corner touches, which live in the DIAGONAL
///              neighbors' run lists (only their seam-hugging run can
///              touch, so they are O(1) probes);
///   left seam  per row, this tile's seam-starting run against the left
///              neighbor's seam-ending runs in rows r-1, r, r+1 clipped
///              to the tile band (rows outside the band cross a
///              horizontal seam too and are exactly the corner cases the
///              top seams above already cover).
///
/// `unite` must be safe for the caller's schedule: uf::seam_unite for
/// concurrent tiles, uf::rem_unite when serialized.
template <class UniteFn>
void merge_run_seams(std::span<const TileSpec> tiles,
                     std::span<const RunBuffer> tile_runs, std::size_t t,
                     const TileGridShape& grid, Connectivity connectivity,
                     UniteFn&& unite) {
  const TileSpec& tile = tiles[t];
  const Coord window = run_overlap_window(connectivity);
  const Coord tc = static_cast<Coord>(t) % grid.grid_cols;

  if (tile.row_begin > 0) {
    const Coord seam_row = tile.row_begin - 1;
    const std::size_t up = t - static_cast<std::size_t>(grid.grid_cols);
    const std::span<const Run> mine = tile_runs[t].row(tile.row_begin);
    unite_overlapping_runs(mine, tile_runs[up].row(seam_row), window, unite);
    if (window > 0 && !mine.empty()) {
      if (tc > 0) {
        const std::span<const Run> diag = tile_runs[up - 1].row(seam_row);
        if (!diag.empty() && diag.back().col_end == tile.col_begin &&
            mine.front().col_begin == tile.col_begin) {
          unite(mine.front().label, diag.back().label);
        }
      }
      if (tc + 1 < grid.grid_cols) {
        const std::span<const Run> diag = tile_runs[up + 1].row(seam_row);
        if (!diag.empty() && diag.front().col_begin == tile.col_end &&
            mine.back().col_end == tile.col_end) {
          unite(mine.back().label, diag.front().label);
        }
      }
    }
  }

  if (tile.col_begin > 0) {
    const RunBuffer& left = tile_runs[t - 1];
    for (Coord r = tile.row_begin; r < tile.row_end; ++r) {
      const std::span<const Run> mine = tile_runs[t].row(r);
      if (mine.empty() || mine.front().col_begin != tile.col_begin) continue;
      const Coord lo = std::max<Coord>(r - window, tile.row_begin);
      const Coord hi = std::min<Coord>(r + window, tile.row_end - 1);
      for (Coord rp = lo; rp <= hi; ++rp) {
        const std::span<const Run> theirs = left.row(rp);
        if (!theirs.empty() && theirs.back().col_end == tile.col_begin) {
          unite(mine.front().label, theirs.back().label);
        }
      }
    }
  }
}

/// Phase III, FLATTEN + canonical renumber, split into per-BAND steps. A
/// band is a horizontal strip of whole tile rows: one tile row, or two
/// for 8-connectivity with an odd tile height, so every band starts on an
/// even image row and no two-line row pair straddles two bands. Bands own
/// disjoint label ranges that increase in band order.
///
/// The canonical order is the sequential algorithms' numbering:
///
///   8-connectivity  first appearance in the sequential TWO-LINE visit
///                   order — row pairs (0,1),(2,3),…, column by column,
///                   upper before lower. A component's first-visited
///                   pixel is the (col_begin, parity)-minimal run start
///                   among its runs in its earliest pair, so merging each
///                   pair's two run streams by (col_begin, parity)
///                   reproduces sequential AREMSP's numbering exactly.
///   4-connectivity  first appearance in raster order (the numbering of
///                   the one-line-scan algorithms and the flood-fill
///                   oracle).
///
/// REM keeps every component's root at its smallest provisional label, so
/// the root lies in the topmost band the component touches, which is
/// also where the component is first visited. Numbering therefore splits
/// by band: all components rooted in band b come before those rooted in
/// band b+1, and inside a band they come in the band-local walk's order.
///
/// The walk costs O(labels) in every pair-aligned band: any 4-conn band,
/// and any 8-conn band whose tiles start on even rows (even tile heights).
/// There a tile's scan units (rows, or two-line row pairs) are global
/// units, so each unit's fresh labels (RunBuffer::issued_through) come in
/// global visit order; the tiles of one tile row cover disjoint columns,
/// so unit by unit, tile by tile left to right, the fresh labels come in
/// the band's visit order. A component's first-visited run has no
/// earlier-visited neighbour in its tile, so it is a fresh-label event,
/// and numbering each label's root on first sight reproduces the
/// canonical order. With one tile per band the walk is plain label order.
/// Only 8-conn bands of odd tile height, whose second tile row starts on
/// an odd row, walk their runs in two-line visit order instead.
///
/// Steps, each taking a band index; the executor schedules them:
///
///   1. flatten(b)       resolve b's labels to their roots and count the
///                       roots b owns. Concurrent across bands: parents may
///                       point into earlier bands that are flattening at
///                       the same time, so every access is a relaxed
///                       atomic (uf::detail::load/store), and every value
///                       ever stored names an ancestor or marks a root.
///   2. assign_offsets() prefix-sum the root counts; O(bands), one thread,
///                       after every flatten. Returns the component count.
///   3. number(b)        walk b's fresh labels (or runs) in visit order
///                       and number the roots b owns. Touches only b's
///                       own entries: race-free.
///   4. finalize(b)      give b's non-roots their root's final label. Reads
///                       only root entries, which no finalize writes.
///   5. check()          after every number: each band's walk assigned
///                       exactly its root count (a lost component throws).
///
/// Between steps every band's writes must be published to the next step
/// (the join at the end of a parallel_for). After finalize, parents[l] is the FINAL label of
/// every issued provisional label l; finish with rewrite_run_labels per
/// tile. Per-band state is O(bands); no table is allocated per label.
class BandRenumber {
 public:
  BandRenumber(std::span<Label> parents, std::span<const TileSpec> tiles,
               std::span<const RunBuffer> tile_runs,
               Connectivity connectivity);

  [[nodiscard]] std::size_t bands() const noexcept { return bands_.size(); }

  void flatten(std::size_t b);
  [[nodiscard]] Label assign_offsets() noexcept;
  void number(std::size_t b);
  void finalize(std::size_t b);
  void check() const;
  /// Every step over every band on the calling thread (the one-band case
  /// and resolve_final_run_labels); returns the component count.
  [[nodiscard]] Label run_serially();

 private:
  struct Band {
    std::size_t tile_begin = 0;  // [tile_begin, tile_end) in row-major order
    std::size_t tile_end = 0;
    Label lo = 0;                // smallest label the band can own
    bool label_walk = false;     // number() walks labels, not runs
    Label roots = 0;             // written by flatten(b)
    Label offset = 0;            // final labels of b's roots exceed this
    Label numbered = 0;          // written by number(b)
  };

  template <class Fn>
  void for_each_label(const Band& band, Fn&& fn) const;

  std::span<Label> parents_;
  std::span<const TileSpec> tiles_;
  std::span<const RunBuffer> tile_runs_;
  Connectivity connectivity_;
  TileGridShape grid_;
  std::vector<Band> bands_;
};

/// The serial executor of BandRenumber: every step over every band in one
/// loop. Returns the component count; parents[l] is final on return.
/// `rows` is the image height the grid covers. `remap` is unread (the
/// band steps need no per-label table) and stays only for existing
/// callers.
[[nodiscard]] Label resolve_final_run_labels(
    std::span<Label> parents, std::span<const TileSpec> tiles,
    std::span<const RunBuffer> tile_runs, Connectivity connectivity,
    Coord rows, std::span<Label> remap);

/// Final labeling for one tile: write each row as its alternating gap
/// (zero) and run (resolved label) segments, left to right — the only
/// pass that writes the output raster. A segment of at most 8 pixels
/// whose start + 8 stays within the tile's col_end is one fixed-width
/// 8-label store; the next segment starts where it ends and overwrites
/// the overhang. Longer segments and the row tail use std::fill. Nothing
/// is written outside the tile rectangle, so `out` may be strided (a
/// caller's label_out ROI writes zero-copy) and distinct tiles are
/// thread-safe.
void rewrite_run_labels(const RunBuffer& runs, std::span<const Label> parents,
                        const TileSpec& tile, MutableImageView out);

/// Fused-analysis epilogue of the renumber: reduce every tile's
/// per-provisional-label feature cells into per-component records through
/// the resolved parent array (parents[l] is final after
/// BandRenumber::finalize), then derive centroids. This is where the
/// seam unions take effect on the features — a union recorded by
/// merge_run_seams makes two provisional labels resolve to one final
/// label, so their cells land in (and commutatively merge into) the same
/// component here. O(total used labels): no pixel is ever revisited.
/// `components` must be default-initialized and sized num_components.
void fold_tile_features(std::span<const analysis::FeatureCell> cells,
                        std::span<const Label> parents,
                        std::span<const TileSpec> tiles,
                        std::span<analysis::ComponentInfo> components);

}  // namespace paremsp
