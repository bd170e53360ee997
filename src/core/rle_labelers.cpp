#include "core/rle_labelers.hpp"

#include <omp.h>

#include <algorithm>
#include <span>
#include <vector>

#include "analysis/feature_accumulator.hpp"
#include "common/contracts.hpp"
#include "common/timer.hpp"
#include "core/equiv_policies.hpp"
#include "core/label_scratch.hpp"
#include "core/tiled_phases.hpp"
#include "obs/trace.hpp"
#include "unionfind/parallel_rem.hpp"
#include "unionfind/rem.hpp"

namespace paremsp {

namespace {

/// Below this many runs the renumber runs on the calling thread: waking a
/// team and passing its barriers costs more than walking a small image's
/// runs serially.
constexpr std::uint64_t kParallelRenumberRuns = 1U << 14;

/// The one run-based pipeline all three rle labelers share: cut a tile
/// grid, scan runs per tile, merge boundary runs, resolve + canonically
/// renumber, and expand the resolved labels back to the raster. `threads`
/// <= 1 serializes every phase (aremsp_rle). `threshold` >= 0 scans
/// `image` as GRAYSCALE through the fused pixel > threshold encoder
/// (run_gray_impl); -1 is the plain binary mode.
LabelResponse label_runs_impl(ConstImageView image, Connectivity connectivity,
                              LabelScratch& scratch,
                              analysis::ComponentStats* stats,
                              Coord tile_rows, Coord tile_cols, int threads,
                              const SeamMerger& merger, int threshold = -1) {
  const WallTimer total;
  // Opened at entry so workspace acquisition lands in scan_ms and the four
  // phase timings partition total_ms (the exporters' reconcile contract).
  WallTimer phase;
  LabelResponse result;
  result.labels = scratch.acquire_plane(image.rows(), image.cols(),
                                        LabelScratch::PlaneInit::Dirty);
  if (image.size() == 0) return result;

  std::vector<TileSpec> tiles =
      make_tile_grid(image.rows(), image.cols(), tile_rows, tile_cols);
  const int ntiles = static_cast<int>(tiles.size());
  const std::size_t label_space = static_cast<std::size_t>(image.size()) + 1;
  std::span<Label> p = scratch.parents(label_space);
  std::span<RunBuffer> tile_runs = scratch.run_buffers(tiles.size());
  // Fused-analysis cells, indexed by provisional label: tile label ranges
  // are disjoint, so concurrent scans share the array unsynchronized.
  std::span<analysis::FeatureCell> cells;
  if (stats != nullptr) cells = scratch.feature_cells(label_space);

  // --- Phase I: per-tile run extraction + run merging ----------------------
  // Per-tile join slots (disjoint, summed post-barrier) keep the scan loop
  // free of shared counters; PhaseCounters fill between the phase timers.
  std::vector<std::uint64_t> tile_joins(tiles.size(), 0);
#pragma omp parallel for schedule(dynamic, 1) num_threads(threads)
  for (int t = 0; t < ntiles; ++t) {
    obs::Span span("rle.scan.tile", "tile");
    auto& tile = tiles[static_cast<std::size_t>(t)];
    auto& runs = tile_runs[static_cast<std::size_t>(t)];
    std::uint64_t* joins = &tile_joins[static_cast<std::size_t>(t)];
    tile.used = stats != nullptr
                    ? scan_tile(image, p, tile, runs, connectivity, cells,
                                joins, threshold)
                    : scan_tile(image, p, tile, runs, connectivity, joins,
                                threshold);
  }
  result.timings.scan_ms = phase.elapsed_ms();
  {
    auto& counters = result.timings.counters;
    counters.tiles = tiles.size();
    for (const auto& tile : tiles) counters.provisional_labels += tile.used;
    for (const std::uint64_t j : tile_joins) counters.scan_unions += j;
    for (const auto& runs : tile_runs) counters.runs_extracted += runs.size();
  }

  // --- Phase II: merge boundary runs along tile seams ----------------------
  phase.reset();
  const TileGridShape grid = tile_grid_shape(tiles);
  std::uint64_t merge_pairs = 0;
  std::uint64_t merge_unions = 0;
  std::uint64_t merge_retries = 0;
  // The Sequential backend runs the same loop on one thread: its plain
  // rem_unite must not run concurrently.
#pragma omp parallel for schedule(dynamic, 1) num_threads(threads) \
    if (merger.concurrent())
  for (int t = 0; t < ntiles; ++t) {
    obs::Span span("rle.merge.tile", "tile");
    std::uint64_t pairs = 0;
    uf::UniteStats us;
    merge_run_seams(tiles, tile_runs, static_cast<std::size_t>(t), grid,
                    connectivity, [&](Label x, Label y) {
                      ++pairs;
                      merger.unite(p.data(), x, y, us);
                    });
#pragma omp atomic
    merge_pairs += pairs;
#pragma omp atomic
    merge_unions += us.joins;
#pragma omp atomic
    merge_retries += us.retries;
  }
  result.timings.merge_ms = phase.elapsed_ms();
  result.timings.counters.merge_pairs = merge_pairs;
  result.timings.counters.merge_unions = merge_unions;
  result.timings.counters.merge_retries = merge_retries;

  // --- FLATTEN + canonical run renumber, one band per iteration -----------
  phase.reset();
  {
    obs::Span span("rle.flatten");
    BandRenumber renumber(p, tiles, {tile_runs.data(), tile_runs.size()},
                          connectivity);
    const int nbands = static_cast<int>(renumber.bands());
    Label k = 0;
    if (nbands == 1 ||
        result.timings.counters.runs_extracted < kParallelRenumberRuns) {
      k = renumber.run_serially();
    } else {
      // The implicit barrier after each loop publishes one step's writes
      // to the next.
#pragma omp parallel num_threads(threads)
      {
#pragma omp for schedule(dynamic, 1)
        for (int b = 0; b < nbands; ++b) {
          obs::Span band_span("rle.flatten.band", "band");
          renumber.flatten(static_cast<std::size_t>(b));
        }
#pragma omp single
        k = renumber.assign_offsets();
#pragma omp for schedule(dynamic, 1)
        for (int b = 0; b < nbands; ++b) {
          obs::Span band_span("rle.flatten.band", "band");
          renumber.number(static_cast<std::size_t>(b));
        }
#pragma omp for schedule(dynamic, 1) nowait  // the region's end joins
        for (int b = 0; b < nbands; ++b) {
          obs::Span band_span("rle.flatten.band", "band");
          renumber.finalize(static_cast<std::size_t>(b));
        }
      }
      renumber.check();
    }
    result.num_components = k;
    if (stats != nullptr) {
      stats->components.assign(
          static_cast<std::size_t>(result.num_components), {});
      fold_tile_features(cells, p, tiles, stats->components);
    }
  }
  result.timings.flatten_ms = phase.elapsed_ms();

  // --- Final labeling: expand resolved run labels (fill-width segments) ----
  phase.reset();
#pragma omp parallel for schedule(dynamic, 1) num_threads(threads)
  for (int t = 0; t < ntiles; ++t) {
    obs::Span span("rle.rewrite.tile", "tile");
    rewrite_run_labels(tile_runs[static_cast<std::size_t>(t)], p,
                       tiles[static_cast<std::size_t>(t)], result.labels);
  }
  result.timings.relabel_ms = phase.elapsed_ms();
  result.timings.total_ms = total.elapsed_ms();
  return result;
}

/// aremsp_rle's merger: one thread, so the plain serial rem_unite.
const SeamMerger kSerialMerger{MergeBackend::Sequential};

/// Full-width row bands for paremsp_rle: about one band per thread,
/// clamped so every band has at least one row, then rounded UP to even so
/// every band starts on an even row — the 8-connected scan's pair order
/// then aligns with the global two-line pairing and the canonical
/// renumber walk collapses to label order (BandRenumber).
Coord band_rows(Coord rows, int threads) {
  const int n = std::clamp<int>(threads, 1, static_cast<int>(
                                                std::max<Coord>(rows, 1)));
  Coord band = std::max<Coord>(1, (rows + n - 1) / n);
  if (band < rows && band % 2 != 0) ++band;
  return band;
}

}  // namespace

LabelResponse AremspRleLabeler::run_impl(ConstImageView image,
                                         Connectivity connectivity,
                                         LabelScratch& scratch,
                                         analysis::ComponentStats* stats)
    const {
  return label_runs_impl(image, connectivity, scratch, stats,
                         std::max<Coord>(image.rows(), 1),
                         std::max<Coord>(image.cols(), 1), /*threads=*/1,
                         kSerialMerger);
}

LabelResponse AremspRleLabeler::run_gray_impl(ConstImageView gray,
                                              std::uint8_t cutoff,
                                              Connectivity connectivity,
                                              LabelScratch& scratch,
                                              analysis::ComponentStats* stats)
    const {
  return label_runs_impl(gray, connectivity, scratch, stats,
                         std::max<Coord>(gray.rows(), 1),
                         std::max<Coord>(gray.cols(), 1), /*threads=*/1,
                         kSerialMerger, cutoff);
}

ParemspRleLabeler::ParemspRleLabeler(RleConfig config,
                                     Connectivity connectivity)
    : Labeler(Algorithm::ParemspRle, connectivity),
      config_(config),
      merger_(config_) {
  PAREMSP_REQUIRE(config_.threads >= 0, "threads must be >= 0");
}

LabelResponse ParemspRleLabeler::run_impl(ConstImageView image,
                                          Connectivity connectivity,
                                          LabelScratch& scratch,
                                          analysis::ComponentStats* stats)
    const {
  const int threads =
      config_.threads > 0 ? config_.threads : omp_get_max_threads();
  return label_runs_impl(image, connectivity, scratch, stats,
                         band_rows(image.rows(), threads),
                         std::max<Coord>(image.cols(), 1), threads,
                         merger_);
}

LabelResponse ParemspRleLabeler::run_gray_impl(
    ConstImageView gray, std::uint8_t cutoff, Connectivity connectivity,
    LabelScratch& scratch, analysis::ComponentStats* stats) const {
  const int threads =
      config_.threads > 0 ? config_.threads : omp_get_max_threads();
  return label_runs_impl(gray, connectivity, scratch, stats,
                         band_rows(gray.rows(), threads),
                         std::max<Coord>(gray.cols(), 1), threads,
                         merger_, cutoff);
}

TiledParemspLabeler::TiledParemspLabeler(RleConfig config,
                                         Connectivity connectivity)
    : Labeler(Algorithm::ParemspTiled, connectivity),
      config_(config),
      merger_(config_) {
  PAREMSP_REQUIRE(config_.threads >= 0, "threads must be >= 0");
  PAREMSP_REQUIRE(config_.tile_rows >= 1 && config_.tile_cols >= 1,
                  "tiles must be at least 1x1");
}

LabelResponse TiledParemspLabeler::run_impl(
    ConstImageView image, Connectivity connectivity, LabelScratch& scratch,
    analysis::ComponentStats* stats) const {
  const int threads =
      config_.threads > 0 ? config_.threads : omp_get_max_threads();
  return label_runs_impl(image, connectivity, scratch, stats,
                         config_.tile_rows, config_.tile_cols, threads,
                         merger_);
}

LabelResponse TiledParemspLabeler::run_gray_impl(
    ConstImageView gray, std::uint8_t cutoff, Connectivity connectivity,
    LabelScratch& scratch, analysis::ComponentStats* stats) const {
  const int threads =
      config_.threads > 0 ? config_.threads : omp_get_max_threads();
  return label_runs_impl(gray, connectivity, scratch, stats,
                         config_.tile_rows, config_.tile_cols, threads,
                         merger_, cutoff);
}

}  // namespace paremsp
