#include "core/tiled_phases.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "core/equiv_policies.hpp"
#include "core/scan_two_line.hpp"  // NoFeatureSink
#include "unionfind/parallel_rem.hpp"  // uf::detail::load/store

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
  return scan_runs(image, runs, eq, sink, run_overlap_window(connectivity),
                   tile.row_begin, tile.row_end, tile.col_begin, tile.col_end,
                   threshold);
}

Label scan_tile(ConstImageView image, std::span<Label> parents,
                const TileSpec& tile, RunBuffer& runs,
                Connectivity connectivity,
                std::span<analysis::FeatureCell> cells, std::uint64_t* joins,
                int threshold) {
  RemEquiv eq(parents, tile.base, joins);
  analysis::FeatureAccumulator sink(cells);
  return scan_runs(image, runs, eq, sink, run_overlap_window(connectivity),
                   tile.row_begin, tile.row_end, tile.col_begin, tile.col_end,
                   threshold);
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

BandRenumber::BandRenumber(std::span<Label> parents,
                           std::span<const TileSpec> tiles,
                           std::span<const RunBuffer> tile_runs,
                           Connectivity connectivity)
    : parents_(parents),
      tiles_(tiles),
      tile_runs_(tile_runs),
      connectivity_(connectivity),
      grid_(tile_grid_shape(tiles)) {
  if (tiles.empty()) return;
  // An odd tile height pairs tile rows under 8-connectivity, so every band
  // starts on an even row and holds whole two-line row pairs.
  const std::size_t rows_per_band =
      connectivity == Connectivity::Eight && grid_.tile_rows % 2 != 0 ? 2 : 1;
  const std::size_t per_band =
      rows_per_band * static_cast<std::size_t>(grid_.grid_cols);
  bands_.reserve((tiles.size() + per_band - 1) / per_band);
  for (std::size_t t = 0; t < tiles.size(); t += per_band) {
    Band band;
    band.tile_begin = t;
    band.tile_end = std::min(t + per_band, tiles.size());
    band.lo = tiles[t].base + 1;
    // Full-width tiles issue labels in raster order (4-conn), or in the
    // global two-line pair order when they start on even rows (8-conn,
    // merge_row_pair_runs): the band's label order IS its visit order
    // (DESIGN.md §3).
    band.label_order =
        grid_.grid_cols == 1 &&
        (connectivity == Connectivity::Four ||
         std::all_of(tiles.begin() + static_cast<std::ptrdiff_t>(t),
                     tiles.begin() + static_cast<std::ptrdiff_t>(band.tile_end),
                     [](const TileSpec& tile) {
                       return tile.row_begin % 2 == 0;
                     }));
    bands_.push_back(band);
  }
}

template <class Fn>
void BandRenumber::for_each_label(const Band& band, Fn&& fn) const {
  for (std::size_t t = band.tile_begin; t < band.tile_end; ++t) {
    const Label hi = tiles_[t].base + tiles_[t].used;
    for (Label i = tiles_[t].base + 1; i <= hi; ++i) fn(i);
  }
}

// Entry encoding between flatten and finalize: 0 is a root not yet
// numbered, a positive value a numbered root's final label, and -r a
// non-root whose root is r. Before flatten every entry is an REM parent
// (<= its index), so a concurrent reader can always tell the cases apart.
void BandRenumber::flatten(std::size_t b) {
  using uf::detail::load;
  using uf::detail::store;
  Band& band = bands_[b];
  Label* p = parents_.data();
  Label roots = 0;
  for_each_label(band, [&](Label i) {
    Label r = i;
    while (true) {
      const Label v = load(p, r);
      if (v < 0) {  // flattened non-root: its root is -v
        r = -v;
        break;
      }
      if (v == 0 || v == r) break;  // r is a root
      r = v;
    }
    if (r == i) {
      store(p, i, 0);
      ++roots;
    } else {
      store(p, i, -r);
    }
  });
  band.roots = roots;
}

Label BandRenumber::assign_offsets() noexcept {
  Label k = 0;
  for (Band& band : bands_) {
    band.offset = k;
    k += band.roots;
  }
  return k;
}

void BandRenumber::number(std::size_t b) {
  Band& band = bands_[b];
  Label* p = parents_.data();
  Label next = band.offset;
  if (band.label_order) {
    for_each_label(band, [&](Label i) {
      if (p[i] == 0) p[i] = ++next;
    });
    band.numbered = next - band.offset;
    return;
  }
  // A run's label is in this band's range, and so is its root unless the
  // component is rooted (and numbered) in an earlier band.
  const auto visit = [&](const Run& run) {
    const Label v = p[run.label];
    const Label root = v < 0 ? -v : run.label;
    if (root >= band.lo && p[root] == 0) p[root] = ++next;
  };
  const Label end = band.offset + band.roots;
  const Coord row_begin = tiles_[band.tile_begin].row_begin;
  const Coord row_end = tiles_[band.tile_end - 1].row_end;
  if (connectivity_ == Connectivity::Eight) {
    // Two-line visit order: merge each row pair's two run streams by
    // (col_begin, parity) — a component's first two-line-visited pixel
    // is always one of its runs' col_begin (an earlier pixel of the same
    // run would contradict minimality), so this walk meets components in
    // exactly the order sequential AREMSP numbers them.
    for (Coord r = row_begin; r < row_end && next < end; r += 2) {
      RowRunCursor upper(tile_runs_, grid_, r);
      RowRunCursor lower(tile_runs_, grid_, r + 1 < row_end ? r + 1 : -1);
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
    for (Coord r = row_begin; r < row_end && next < end; ++r) {
      for (RowRunCursor cursor(tile_runs_, grid_, r);
           cursor.current() != nullptr; cursor.next()) {
        visit(*cursor.current());
      }
    }
  }
  band.numbered = next - band.offset;
}

void BandRenumber::check() const {
  for (const Band& band : bands_) {
    PAREMSP_ENSURE(band.numbered == band.roots,
                   "run first-appearance renumber lost a component");
  }
}

void BandRenumber::finalize(std::size_t b) {
  Label* p = parents_.data();
  for_each_label(bands_[b], [p](Label i) {
    if (p[i] < 0) p[i] = p[-p[i]];
  });
}

Label BandRenumber::run_serially() {
  for (std::size_t b = 0; b < bands(); ++b) flatten(b);
  const Label k = assign_offsets();
  for (std::size_t b = 0; b < bands(); ++b) number(b);
  check();
  for (std::size_t b = 0; b < bands(); ++b) finalize(b);
  return k;
}

Label resolve_final_run_labels(std::span<Label> parents,
                               std::span<const TileSpec> tiles,
                               std::span<const RunBuffer> tile_runs,
                               Connectivity connectivity, Coord rows,
                               std::span<Label> /*remap*/) {
  PAREMSP_REQUIRE(tiles.empty() || tiles.back().row_end == rows,
                  "rows must be the height the tile grid covers");
  return BandRenumber(parents, tiles, tile_runs, connectivity).run_serially();
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
