#include "core/tiled_phases.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "core/equiv_policies.hpp"
#include "core/scan_two_line.hpp"  // NoFeatureSink

namespace paremsp {

std::vector<TileSpec> make_tile_grid(Coord rows, Coord cols, Coord tile_rows,
                                     Coord tile_cols) {
  PAREMSP_REQUIRE(tile_rows >= 1 && tile_cols >= 1,
                  "tiles must be at least 1x1");
  std::vector<TileSpec> tiles;
  if (rows <= 0 || cols <= 0) return tiles;
  tiles.reserve(static_cast<std::size_t>((rows + tile_rows - 1) / tile_rows) *
                static_cast<std::size_t>((cols + tile_cols - 1) / tile_cols));
  Label base = 0;
  for (Coord r0 = 0; r0 < rows; r0 += tile_rows) {
    const Coord r1 = std::min<Coord>(r0 + tile_rows, rows);
    for (Coord c0 = 0; c0 < cols; c0 += tile_cols) {
      const Coord c1 = std::min<Coord>(c0 + tile_cols, cols);
      TileSpec t{r0, r1, c0, c1, base, 0};
      base += static_cast<Label>(t.pixels());
      tiles.push_back(t);
    }
  }
  return tiles;
}

TileGridShape tile_grid_shape(std::span<const TileSpec> tiles) {
  TileGridShape grid;
  if (tiles.empty()) return grid;
  const TileSpec& first = tiles.front();
  grid.tile_rows = first.row_end - first.row_begin;
  grid.tile_cols = first.col_end - first.col_begin;
  Coord cols = 0;
  for (const TileSpec& tile : tiles) {
    if (tile.row_begin != first.row_begin) break;
    ++cols;
  }
  grid.grid_cols = cols;
  grid.grid_rows = static_cast<Coord>(tiles.size()) / cols;
  return grid;
}

Label scan_tile(ConstImageView image, std::span<Label> parents,
                const TileSpec& tile, RunBuffer& runs,
                Connectivity connectivity, std::uint64_t* joins,
                int threshold) {
  RemEquiv eq(parents, tile.base, joins);
  NoFeatureSink sink;
  return connectivity == Connectivity::Eight
             ? scan_runs_two_line(image, runs, eq, sink, tile.row_begin,
                                  tile.row_end, tile.col_begin, tile.col_end,
                                  threshold)
             : scan_runs_one_line(image, runs, eq, sink, connectivity,
                                  tile.row_begin, tile.row_end,
                                  tile.col_begin, tile.col_end, threshold);
}

Label scan_tile(ConstImageView image, std::span<Label> parents,
                const TileSpec& tile, RunBuffer& runs,
                Connectivity connectivity,
                std::span<analysis::FeatureCell> cells, std::uint64_t* joins,
                int threshold) {
  RemEquiv eq(parents, tile.base, joins);
  analysis::FeatureAccumulator sink(cells);
  return connectivity == Connectivity::Eight
             ? scan_runs_two_line(image, runs, eq, sink, tile.row_begin,
                                  tile.row_end, tile.col_begin, tile.col_end,
                                  threshold)
             : scan_runs_one_line(image, runs, eq, sink, connectivity,
                                  tile.row_begin, tile.row_end,
                                  tile.col_begin, tile.col_end, threshold);
}

namespace {

/// Left-to-right cursor over one IMAGE row's runs, spliced across the
/// tile columns of the grid (each tile holds only its own column range).
class RowRunCursor {
 public:
  RowRunCursor(std::span<const RunBuffer> tile_runs,
               const TileGridShape& grid, Coord r)
      : tile_runs_(tile_runs), grid_(grid), tc_(grid.grid_cols) {
    if (r < 0 || grid.grid_cols == 0) return;
    const Coord tr = r / grid.tile_rows;
    if (tr >= grid.grid_rows) return;
    row_ = r;
    base_ = static_cast<std::size_t>(tr) *
            static_cast<std::size_t>(grid.grid_cols);
    tc_ = 0;
    advance_to_nonempty();
  }

  [[nodiscard]] const Run* current() const noexcept {
    return tc_ < grid_.grid_cols ? &tile_runs_[base_ + static_cast<std::size_t>(
                                                           tc_)]
                                        .row(row_)[idx_]
                                 : nullptr;
  }

  void next() noexcept {
    ++idx_;
    advance_to_nonempty();
  }

 private:
  void advance_to_nonempty() noexcept {
    while (tc_ < grid_.grid_cols &&
           idx_ >= tile_runs_[base_ + static_cast<std::size_t>(tc_)]
                       .row(row_)
                       .size()) {
      ++tc_;
      idx_ = 0;
    }
  }

  std::span<const RunBuffer> tile_runs_;
  TileGridShape grid_;
  Coord row_ = -1;
  std::size_t base_ = 0;
  Coord tc_ = 0;
  std::size_t idx_ = 0;
};

}  // namespace

Label resolve_final_run_labels(std::span<Label> parents,
                               std::span<const TileSpec> tiles,
                               std::span<const RunBuffer> tile_runs,
                               Connectivity connectivity, Coord rows,
                               std::span<Label> remap) {
  // FLATTEN (paper Algorithm 3) over used ranges in increasing base
  // order: REM parents always point at smaller issued labels, so one pass
  // resolves everything and numbers components by increasing root, i.e.
  // first appearance in TILE order.
  Label k = 0;
  for (const TileSpec& tile : tiles) {
    const Label lo = tile.base + 1;
    const Label hi = tile.base + tile.used;
    for (Label i = lo; i <= hi; ++i) {
      if (parents[i] < i) {
        parents[i] = parents[parents[i]];
      } else {
        parents[i] = ++k;
      }
    }
  }
  if (k == 0) return 0;

  const TileGridShape grid = tile_grid_shape(tiles);

  // 4-connectivity targets raster-first-appearance order (the numbering
  // of the one-line scan algorithms and the flood-fill oracle). For
  // full-width tile bands the label bases increase in row order, so the
  // flatten above already numbered components by their first run in
  // raster order and the walk would be the identity.
  if (connectivity == Connectivity::Four && grid.grid_cols == 1) return k;

  PAREMSP_REQUIRE(remap.size() > static_cast<std::size_t>(k),
                  "remap storage smaller than the component count");
  std::fill_n(remap.begin(), static_cast<std::size_t>(k) + 1, Label{0});
  Label next = 0;
  const auto visit = [&](const Run& run) {
    Label& slot = remap[parents[run.label]];
    if (slot == 0) slot = ++next;
  };

  if (connectivity == Connectivity::Eight && grid.grid_cols == 1) {
    // Full-width tiles whose rows start EVEN are the paper's row chunks:
    // bases increase in band order and the run scan issues labels in
    // two-line pair order aligned with the global pairing
    // (merge_row_pair_runs), so the flatten above already numbered
    // components by two-line first appearance — the walk is the identity
    // and is skipped (DESIGN.md §3).
    const bool pair_aligned =
        std::all_of(tiles.begin(), tiles.end(),
                    [](const TileSpec& t) { return t.row_begin % 2 == 0; });
    if (pair_aligned) return k;
    // Odd-aligned full-width bands: each image row's runs are ONE
    // contiguous span, so the pair merge runs on raw spans with no
    // cursor indirection.
    const auto row_span = [&](Coord r) {
      return tile_runs[static_cast<std::size_t>(r / grid.tile_rows)].row(r);
    };
    for (Coord r = 0; r < rows && next < k; r += 2) {
      const std::span<const Run> upper = row_span(r);
      const std::span<const Run> lower =
          r + 1 < rows ? row_span(r + 1) : std::span<const Run>{};
      std::size_t u = 0, l = 0;
      while (u < upper.size() || l < lower.size()) {
        if (l >= lower.size() ||
            (u < upper.size() &&
             upper[u].col_begin <= lower[l].col_begin)) {
          visit(upper[u++]);
        } else {
          visit(lower[l++]);
        }
      }
    }
  } else if (connectivity == Connectivity::Eight) {
    // Two-line visit order: merge each row pair's two run streams by
    // (col_begin, parity) — a component's first two-line-visited pixel
    // is always one of its runs' col_begin (an earlier pixel of the same
    // run would contradict minimality), so this walk meets components in
    // exactly the order sequential AREMSP numbers them.
    for (Coord r = 0; r < rows && next < k; r += 2) {
      RowRunCursor upper(tile_runs, grid, r);
      RowRunCursor lower(tile_runs, grid, r + 1 < rows ? r + 1 : -1);
      const Run* u = upper.current();
      const Run* l = lower.current();
      while (u != nullptr || l != nullptr) {
        if (l == nullptr || (u != nullptr && u->col_begin <= l->col_begin)) {
          visit(*u);
          upper.next();
          u = upper.current();
        } else {
          visit(*l);
          lower.next();
          l = lower.current();
        }
      }
    }
  } else {
    for (Coord r = 0; r < rows && next < k; ++r) {
      for (RowRunCursor cursor(tile_runs, grid, r);
           cursor.current() != nullptr; cursor.next()) {
        visit(*cursor.current());
      }
    }
  }
  PAREMSP_ENSURE(next == k, "run first-appearance renumber lost a component");
  for (const TileSpec& tile : tiles) {
    const Label lo = tile.base + 1;
    const Label hi = tile.base + tile.used;
    for (Label i = lo; i <= hi; ++i) parents[i] = remap[parents[i]];
  }
  return k;
}

void rewrite_run_labels(const RunBuffer& runs, std::span<const Label> parents,
                        const TileSpec& tile, MutableImageView out) {
  for (Coord r = tile.row_begin; r < tile.row_end; ++r) {
    Label* dst = out.row(r);
    // Background first in one streaming fill, then the foreground
    // segments: half the fill calls of gap-by-gap interleaving, and the
    // long memset-style zero fill vectorizes regardless of run lengths.
    std::fill(dst + tile.col_begin, dst + tile.col_end, Label{0});
    for (const Run& run : runs.row(r)) {
      std::fill(dst + run.col_begin, dst + run.col_end,
                parents[static_cast<std::size_t>(run.label)]);
    }
  }
}

void fold_tile_features(std::span<const analysis::FeatureCell> cells,
                        std::span<const Label> parents,
                        std::span<const TileSpec> tiles,
                        std::span<analysis::ComponentInfo> components) {
  for (const TileSpec& tile : tiles) {
    if (tile.used == 0) continue;
    analysis::fold_features(cells, parents, tile.base + 1,
                            tile.base + tile.used, components);
  }
  analysis::finalize_components(components);
}

}  // namespace paremsp
