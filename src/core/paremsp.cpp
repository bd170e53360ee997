#include "core/paremsp.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "analysis/component_stats.hpp"
#include "analysis/feature_accumulator.hpp"
#include "common/contracts.hpp"
#include "common/env.hpp"
#include "common/executor.hpp"
#include "common/timer.hpp"
#include "core/equiv_policies.hpp"
#include "core/label_scratch.hpp"
#include "core/scan_two_line.hpp"
#include "obs/trace.hpp"
#include "unionfind/parallel_rem.hpp"
#include "unionfind/rem.hpp"

namespace paremsp {

namespace {

/// One thread's slice of the image: rows [row_begin, row_end), provisional
/// labels (base, base + used].
struct Chunk {
  Coord row_begin = 0;
  Coord row_end = 0;
  Label base = 0;
  Label used = 0;
};

/// Partition rows/2 two-row iterations into `nchunks` contiguous runs
/// (Algorithm 7 lines 2-7). Chunks start on even rows so the scan-mask
/// alignment matches the sequential scan; the last chunk absorbs any
/// remainder pairs plus the odd trailing row.
std::vector<Chunk> make_chunks(Coord rows, Coord cols, int nchunks) {
  const Coord pairs = rows / 2;
  std::vector<Chunk> chunks(static_cast<std::size_t>(nchunks));
  const Coord per = nchunks > 0 ? pairs / nchunks : 0;
  const Coord rem = nchunks > 0 ? pairs % nchunks : 0;
  Coord pair_start = 0;
  for (int t = 0; t < nchunks; ++t) {
    const Coord npairs = per + (t < rem ? 1 : 0);
    auto& ch = chunks[static_cast<std::size_t>(t)];
    ch.row_begin = 2 * pair_start;
    ch.row_end = 2 * (pair_start + npairs);
    ch.base = ch.row_begin * cols;
    pair_start += npairs;
  }
  chunks.back().row_end = rows;  // absorb the odd final row, if any
  return chunks;
}

/// Phase II: merge each chunk's top row with the row above (Algorithm 7
/// lines 10-21). `unite` feeds uf::seam_unite.
template <class UniteFn>
void merge_boundary_row(const LabelImage& labels, Coord row, UniteFn&& unite) {
  const Coord cols = labels.cols();
  for (Coord c = 0; c < cols; ++c) {
    const Label e = labels(row, c);
    if (e == 0) continue;
    const Label b = labels(row - 1, c);
    if (b != 0) {
      // a/c (if foreground) are horizontally adjacent to b in the upper
      // chunk and therefore already share b's component: one merge does it.
      unite(e, b);
    } else {
      if (c > 0) {
        const Label a = labels(row - 1, c - 1);
        if (a != 0) unite(e, a);
      }
      if (c + 1 < cols) {
        const Label cc = labels(row - 1, c + 1);
        if (cc != 0) unite(e, cc);
      }
    }
  }
}

}  // namespace

ParemspLabeler::ParemspLabeler(ParemspConfig config)
    : Labeler(Algorithm::Paremsp, Connectivity::Eight),
      config_(config) {
  PAREMSP_REQUIRE(config_.threads >= 0, "threads must be >= 0");
}

LabelResponse ParemspLabeler::run_impl(ConstImageView image,
                                       Connectivity connectivity,
                                       LabelScratch& scratch,
                                       analysis::ComponentStats* stats)
    const {
  (void)connectivity;  // 8-only; run() rejected anything else
  const WallTimer total;
  // Opened at entry so workspace acquisition lands in scan_ms and the four
  // phase timings partition total_ms (the exporters' reconcile contract).
  WallTimer phase;
  LabelResponse result;
  result.labels =
      scratch.acquire_plane(image.rows(), image.cols(),
                            LabelScratch::PlaneInit::Dirty);
  if (image.size() == 0) return result;

  const Coord rows = image.rows();
  const Coord cols = image.cols();
  const int requested =
      config_.threads > 0 ? config_.threads : hardware_threads();
  // No point in more chunks than two-row iterations.
  const int nchunks = std::clamp<int>(
      requested, 1, static_cast<int>(std::max<Coord>(rows / 2, 1)));
  // One grain decision per image: every phase below fans out, or none.
  const std::int64_t work = image.size();

  std::vector<Chunk> chunks = make_chunks(rows, cols, nchunks);
  const std::size_t label_space = static_cast<std::size_t>(image.size()) + 1;
  std::span<Label> p = scratch.parents(label_space);
  // Fused-analysis cells, indexed by provisional label like `p`: chunk
  // label ranges are disjoint, so the concurrent scans share the array
  // without synchronization.
  std::span<analysis::FeatureCell> cells;
  if (stats != nullptr) cells = scratch.feature_cells(label_space);
  LabelImage& labels = result.labels;

  // --- Phase I: concurrent chunk-local scans --------------------------------
  // Per-chunk join slots: disjoint like the label ranges, summed after the
  // loop — the scan stays free of shared counters.
  std::vector<std::uint64_t> chunk_joins(chunks.size(), 0);
  parallel_for(chunks.size(), work, nchunks, [&](std::size_t t) {
    obs::Span span("paremsp.scan.chunk", "tile");
    auto& ch = chunks[t];
    RemEquiv eq(p, ch.base, &chunk_joins[t]);
    if (stats != nullptr) {
      analysis::FeatureAccumulator sink(cells);
      scan_two_line(image, labels, eq, sink, ch.row_begin, ch.row_end);
    } else {
      scan_two_line(image, labels, eq, ch.row_begin, ch.row_end);
    }
    ch.used = eq.used();
  });
  result.timings.scan_ms = phase.elapsed_ms();
  {
    auto& counters = result.timings.counters;
    counters.tiles = chunks.size();
    for (const auto& ch : chunks) counters.provisional_labels += ch.used;
    for (const std::uint64_t j : chunk_joins) counters.scan_unions += j;
  }

  // --- Phase II: merge chunk-boundary equivalences -------------------------
  phase.reset();
  // Per-boundary slots, like the scan's: each piece counts locally and
  // stores once, summed after the loop. Piece t merges chunk t + 1's top
  // row.
  std::vector<std::uint64_t> pair_slots(chunks.size() - 1, 0);
  std::vector<uf::UniteStats> unite_slots(chunks.size() - 1);
  parallel_for(chunks.size() - 1, work, nchunks, [&](std::size_t t) {
    obs::Span span("paremsp.merge.boundary", "tile");
    std::uint64_t pairs = 0;
    uf::UniteStats us;
    merge_boundary_row(labels, chunks[t + 1].row_begin,
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

  // --- Analysis: FLATTEN over each chunk's used label range ----------------
  // Ranges are visited in increasing base order, so every parent (always a
  // smaller used label) is resolved before its children; final labels come
  // out consecutive across chunks exactly as in the sequential algorithm.
  phase.reset();
  Label k = 0;
  {
    obs::Span span("paremsp.flatten");
    for (const auto& ch : chunks) {
      const Label lo = ch.base + 1;
      const Label hi = ch.base + ch.used;
      for (Label i = lo; i <= hi; ++i) {
        if (p[i] < i) {
          p[i] = p[p[i]];
        } else {
          p[i] = ++k;
        }
      }
    }
    result.num_components = k;
    // Fused analysis: reduce each chunk's cells through the now-resolved
    // parent table — the boundary merges of Phase II decided which cells
    // land in the same component. O(labels), no pixel re-read.
    if (stats != nullptr) {
      stats->components.assign(static_cast<std::size_t>(k), {});
      for (const auto& ch : chunks) {
        if (ch.used == 0) continue;
        analysis::fold_features(cells, p, ch.base + 1, ch.base + ch.used,
                                stats->components);
      }
      analysis::finalize_components(stats->components);
    }
  }
  result.timings.flatten_ms = phase.elapsed_ms();

  // --- Final labeling pass --------------------------------------------------
  phase.reset();
  {
    obs::Span span("paremsp.relabel");
    const std::int64_t n = labels.size();
    const auto pieces = static_cast<std::int64_t>(nchunks);
    Label* lp = labels.pixels().data();
    parallel_for(chunks.size(), work, nchunks, [&](std::size_t t) {
      const auto piece = static_cast<std::int64_t>(t);
      const std::int64_t end = n * (piece + 1) / pieces;
      for (std::int64_t i = n * piece / pieces; i < end; ++i) {
        if (lp[i] != 0) lp[i] = p[lp[i]];
      }
    });
  }
  result.timings.relabel_ms = phase.elapsed_ms();
  result.timings.total_ms = total.elapsed_ms();
  return result;
}

}  // namespace paremsp
