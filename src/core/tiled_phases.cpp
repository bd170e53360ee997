#include "core/tiled_phases.hpp"

#include <algorithm>
#include <limits>

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
  PAREMSP_REQUIRE(static_cast<std::int64_t>(rows) * cols <
                      std::numeric_limits<Label>::max(),
                  "rows * cols + 1 must fit the 32-bit Label range");
  tiles.reserve(static_cast<std::size_t>((rows + tile_rows - 1) / tile_rows) *
                static_cast<std::size_t>((cols + tile_cols - 1) / tile_cols));
  std::int64_t base = 0;
  for (Coord r0 = 0; r0 < rows; r0 += tile_rows) {
    const Coord r1 = std::min<Coord>(r0 + tile_rows, rows);
    for (Coord c0 = 0; c0 < cols; c0 += tile_cols) {
      const Coord c1 = std::min<Coord>(c0 + tile_cols, cols);
      TileSpec t{r0, r1, c0, c1, static_cast<Label>(base), 0};
      base += t.pixels();
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
    // A tile starting on an even row pairs its rows like the global
    // two-line scan does (merge_row_pair_runs), and 4-connectivity's units
    // are single rows, so the band's units are global units. Odd tile
    // heights (8-conn) pair two tile rows per band, and the second always
    // starts on an odd row.
    band.label_walk =
        connectivity == Connectivity::Four ||
        std::all_of(tiles.begin() + static_cast<std::ptrdiff_t>(t),
                    tiles.begin() + static_cast<std::ptrdiff_t>(band.tile_end),
                    [](const TileSpec& tile) {
                      return tile.row_begin % 2 == 0;
                    });
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
  const Label end = band.offset + band.roots;
  // Label i is in this band's range, and so is its root unless the
  // component is rooted (and numbered) in an earlier band.
  const auto visit = [&](Label i) {
    const Label v = p[i];
    const Label root = v < 0 ? -v : i;
    if (root >= band.lo && p[root] == 0) p[root] = ++next;
  };
  const Coord row_begin = tiles_[band.tile_begin].row_begin;
  const Coord row_end = tiles_[band.tile_end - 1].row_end;
  if (band.label_walk) {
    // Unit by unit, tile by tile left to right, each tile's fresh labels
    // of that unit in issue order: the band's fresh-label events in global
    // visit order. A component's first-visited run has no earlier-visited
    // neighbour in its tile, so it is one of these events.
    const Coord unit = connectivity_ == Connectivity::Eight ? 2 : 1;
    for (Coord r = row_begin; r < row_end && next < end; r += unit) {
      const Coord last = std::min(r + unit, row_end) - 1;
      for (std::size_t t = band.tile_begin; t < band.tile_end; ++t) {
        const Label base = tiles_[t].base;
        const Label hi = base + tile_runs_[t].issued_through(last);
        for (Label i = base + tile_runs_[t].issued_through(r - 1) + 1;
             i <= hi; ++i) {
          visit(i);
        }
      }
    }
    band.numbered = next - band.offset;
    return;
  }
  // 8-conn band holding an odd-aligned tile row: its tiles' local pairs
  // straddle the global ones, so walk the runs in two-line visit order —
  // merge each row pair's two run streams by (col_begin, parity). A
  // component's first two-line-visited pixel is always one of its runs'
  // col_begin (an earlier pixel of the same run would contradict
  // minimality), so this walk meets components in exactly the order
  // sequential AREMSP numbers them.
  for (Coord r = row_begin; r < row_end && next < end; r += 2) {
    RowRunCursor upper(tile_runs_, grid_, r);
    RowRunCursor lower(tile_runs_, grid_, r + 1 < row_end ? r + 1 : -1);
    const Run* u = upper.current();
    const Run* l = lower.current();
    while (u != nullptr || l != nullptr) {
      if (l == nullptr || (u != nullptr && u->col_begin <= l->col_begin)) {
        visit(u->label);
        upper.next();
        u = upper.current();
      } else {
        visit(l->label);
        lower.next();
        l = lower.current();
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
  constexpr Coord kStore = 8;  // one fixed-width store: 32 bytes of labels
  const Coord end = tile.col_end;
  for (Coord r = tile.row_begin; r < tile.row_end; ++r) {
    Label* dst = out.row(r);
    // The row's gap and run segments in order, left to right. A short
    // segment whose fixed-width store stays inside the tile is written
    // with that store; the overhang past its end lies in later segments
    // of this row, which overwrite it.
    const auto segment = [dst, end](Coord a, Coord b, Label v) {
      if (b - a <= kStore && a + kStore <= end) {
        std::fill_n(dst + a, kStore, v);
      } else {
        std::fill(dst + a, dst + b, v);
      }
    };
    Coord x = tile.col_begin;
    for (const Run& run : runs.row(r)) {
      segment(x, run.col_begin, Label{0});
      segment(run.col_begin, run.col_end,
              parents[static_cast<std::size_t>(run.label)]);
      x = run.col_end;
    }
    std::fill(dst + x, dst + end, Label{0});
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
