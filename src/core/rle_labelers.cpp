#include "core/rle_labelers.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "analysis/feature_accumulator.hpp"
#include "common/contracts.hpp"
#include "common/env.hpp"
#include "common/executor.hpp"
#include "common/timer.hpp"
#include "core/label_scratch.hpp"
#include "core/tiled_phases.hpp"
#include "obs/trace.hpp"
#include "unionfind/parallel_rem.hpp"

namespace paremsp {

LabelResponse label_runs_impl(ConstImageView image, Connectivity connectivity,
                              LabelScratch& scratch,
                              analysis::ComponentStats* stats,
                              const RunPlan& plan) {
  const WallTimer total;
  // Opened at entry so workspace acquisition lands in scan_ms and the four
  // phase timings partition total_ms (the exporters' reconcile contract).
  WallTimer phase;
  LabelResponse result;
  // First, so an image whose label range overflows Label is refused
  // before any pixel-sized allocation.
  std::vector<TileSpec> tiles = make_tile_grid(
      image.rows(), image.cols(), plan.tile_rows, plan.tile_cols);
  if (plan.labels && !plan.label_out.has_value()) {
    result.labels = scratch.acquire_plane(image.rows(), image.cols(),
                                          LabelScratch::PlaneInit::Dirty);
  }
  if (image.size() == 0) return result;
  const auto between_phases = [&] {
    if (plan.between_phases) plan.between_phases();
  };
  // One grain decision per image: every phase below fans out, or none.
  const std::int64_t work = image.size();
  const int threads = plan.threads;

  const std::size_t label_space = static_cast<std::size_t>(image.size()) + 1;
  std::span<Label> p = scratch.parents(label_space);
  std::span<RunBuffer> tile_runs = scratch.run_buffers(tiles.size());
  // Fused-analysis cells, indexed by provisional label: tile label ranges
  // are disjoint, so concurrent scans share the array unsynchronized.
  std::span<analysis::FeatureCell> cells;
  if (stats != nullptr) cells = scratch.feature_cells(label_space);

  // --- Phase I: per-tile run extraction + run merging ----------------------
  // Per-tile slots (disjoint, summed after the loop) keep every phase loop
  // free of shared counters.
  std::vector<std::uint64_t> tile_joins(tiles.size(), 0);
  parallel_for(tiles.size(), work, threads, [&](std::size_t t) {
    obs::Span span("rle.scan.tile", "tile");
    TileSpec& tile = tiles[t];
    tile.used = stats != nullptr
                    ? scan_tile(image, p, tile, tile_runs[t], connectivity,
                                cells, &tile_joins[t], plan.threshold)
                    : scan_tile(image, p, tile, tile_runs[t], connectivity,
                                &tile_joins[t], plan.threshold);
  });
  scratch.book_run_buffers();
  result.timings.scan_ms = phase.elapsed_ms();
  {
    auto& counters = result.timings.counters;
    counters.tiles = tiles.size();
    for (const auto& tile : tiles) counters.provisional_labels += tile.used;
    for (const std::uint64_t j : tile_joins) counters.scan_unions += j;
    for (const auto& runs : tile_runs) counters.runs_extracted += runs.size();
  }
  between_phases();

  // --- Phase II: merge boundary runs along tile seams ----------------------
  phase.reset();
  const TileGridShape grid = tile_grid_shape(tiles);
  std::vector<std::uint64_t> pair_slots(tiles.size(), 0);
  std::vector<uf::UniteStats> unite_slots(tiles.size());
  parallel_for(tiles.size(), work, threads, [&](std::size_t t) {
    obs::Span span("rle.merge.tile", "tile");
    std::uint64_t pairs = 0;
    uf::UniteStats us;
    merge_run_seams(tiles, tile_runs, t, grid, connectivity,
                    [&](Label x, Label y) {
                      ++pairs;
                      uf::seam_unite(p.data(), x, y, us);
                    });
    pair_slots[t] = pairs;
    unite_slots[t] = us;
  });
  result.timings.merge_ms = phase.elapsed_ms();
  {
    auto& counters = result.timings.counters;
    for (const std::uint64_t n : pair_slots) counters.merge_pairs += n;
    for (const uf::UniteStats& us : unite_slots) {
      counters.merge_unions += us.joins;
      counters.merge_retries += us.retries;
    }
  }
  between_phases();

  // --- FLATTEN + canonical run renumber, one piece per band ---------------
  // Each loop returns only after all its pieces have, which publishes one
  // step's writes to the next.
  phase.reset();
  {
    obs::Span span("rle.flatten");
    BandRenumber renumber(p, tiles, {tile_runs.data(), tile_runs.size()},
                          connectivity);
    const auto each_band = [&](void (BandRenumber::*step)(std::size_t)) {
      parallel_for(renumber.bands(), work, threads, [&](std::size_t b) {
        obs::Span band_span("rle.flatten.band", "band");
        (renumber.*step)(b);
      });
    };
    each_band(&BandRenumber::flatten);
    result.num_components = renumber.assign_offsets();
    each_band(&BandRenumber::number);
    renumber.check();
    each_band(&BandRenumber::finalize);
    if (stats != nullptr) {
      stats->components.assign(
          static_cast<std::size_t>(result.num_components), {});
      fold_tile_features(cells, p, tiles, stats->components);
    }
  }
  result.timings.flatten_ms = phase.elapsed_ms();
  between_phases();

  // --- Final labeling: expand resolved run labels (fill-width segments) ----
  phase.reset();
  if (plan.labels) {
    const MutableImageView out = plan.label_out.has_value()
                                     ? *plan.label_out
                                     : MutableImageView(result.labels);
    parallel_for(tiles.size(), work, threads, [&](std::size_t t) {
      obs::Span span("rle.rewrite.tile", "tile");
      rewrite_run_labels(tile_runs[t], p, tiles[t], out);
    });
  }
  result.timings.relabel_ms = phase.elapsed_ms();
  result.timings.total_ms = total.elapsed_ms();
  return result;
}

namespace {

/// `threads` as configured, 0 meaning every hardware thread.
int resolved_threads(int threads) {
  return threads > 0 ? threads : hardware_threads();
}

/// paremsp_rle: full-width row bands, about one per thread.
LabelResponse label_row_bands(ConstImageView image, Connectivity connectivity,
                              LabelScratch& scratch,
                              analysis::ComponentStats* stats,
                              const RleConfig& config, int threshold) {
  return label_runs_impl(
      image, connectivity, scratch, stats,
      row_band_plan(image, resolved_threads(config.threads), threshold));
}

/// paremsp2d: the configured 2-D tile grid.
LabelResponse label_tiles(ConstImageView image, Connectivity connectivity,
                          LabelScratch& scratch,
                          analysis::ComponentStats* stats,
                          const RleConfig& config, int threshold) {
  return label_runs_impl(image, connectivity, scratch, stats,
                         {.tile_rows = config.tile_rows,
                          .tile_cols = config.tile_cols,
                          .threads = resolved_threads(config.threads),
                          .threshold = threshold});
}

}  // namespace

RunPlan row_band_plan(ConstImageView image, int threads, int threshold) {
  const Coord rows = std::max<Coord>(image.rows(), 1);
  const int n = std::clamp<int>(threads, 1, static_cast<int>(rows));
  Coord band = (rows + n - 1) / n;
  if (band < rows && band % 2 != 0) ++band;
  return {.tile_rows = band,
          .tile_cols = std::max<Coord>(image.cols(), 1),
          .threads = threads,
          .threshold = threshold};
}

LabelResponse AremspRleLabeler::run_impl(ConstImageView image,
                                         Connectivity connectivity,
                                         LabelScratch& scratch,
                                         analysis::ComponentStats* stats)
    const {
  return label_runs_impl(image, connectivity, scratch, stats,
                         row_band_plan(image, 1));
}

LabelResponse AremspRleLabeler::run_gray_impl(ConstImageView gray,
                                              std::uint8_t cutoff,
                                              Connectivity connectivity,
                                              LabelScratch& scratch,
                                              analysis::ComponentStats* stats)
    const {
  return label_runs_impl(gray, connectivity, scratch, stats,
                         row_band_plan(gray, 1, cutoff));
}

ParemspRleLabeler::ParemspRleLabeler(RleConfig config,
                                     Connectivity connectivity)
    : Labeler(Algorithm::ParemspRle, connectivity),
      config_(config) {
  PAREMSP_REQUIRE(config_.threads >= 0, "threads must be >= 0");
}

LabelResponse ParemspRleLabeler::run_impl(ConstImageView image,
                                          Connectivity connectivity,
                                          LabelScratch& scratch,
                                          analysis::ComponentStats* stats)
    const {
  return label_row_bands(image, connectivity, scratch, stats, config_, -1);
}

LabelResponse ParemspRleLabeler::run_gray_impl(
    ConstImageView gray, std::uint8_t cutoff, Connectivity connectivity,
    LabelScratch& scratch, analysis::ComponentStats* stats) const {
  return label_row_bands(gray, connectivity, scratch, stats, config_,
                         cutoff);
}

TiledParemspLabeler::TiledParemspLabeler(RleConfig config,
                                         Connectivity connectivity)
    : Labeler(Algorithm::ParemspTiled, connectivity),
      config_(config) {
  PAREMSP_REQUIRE(config_.threads >= 0, "threads must be >= 0");
  PAREMSP_REQUIRE(config_.tile_rows >= 1 && config_.tile_cols >= 1,
                  "tiles must be at least 1x1");
}

LabelResponse TiledParemspLabeler::run_impl(
    ConstImageView image, Connectivity connectivity, LabelScratch& scratch,
    analysis::ComponentStats* stats) const {
  return label_tiles(image, connectivity, scratch, stats, config_, -1);
}

LabelResponse TiledParemspLabeler::run_gray_impl(
    ConstImageView gray, std::uint8_t cutoff, Connectivity connectivity,
    LabelScratch& scratch, analysis::ComponentStats* stats) const {
  return label_tiles(gray, connectivity, scratch, stats, config_, cutoff);
}

}  // namespace paremsp
