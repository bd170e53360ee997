#include "propagate/propagate_labeler.hpp"

#include <algorithm>
#include <thread>
#include <vector>

#include "analysis/component_stats.hpp"
#include "common/contracts.hpp"
#include "common/timer.hpp"
#include "core/label_scratch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace paremsp {

namespace {

using propagate::PropagateGrid;
using propagate::ScanResult;

/// Kernel launcher: run fn(begin, end, slot) over [0, n) split across up
/// to `threads` std::threads, joining before return — the CPU analogue of
/// one device kernel launch. `grain` is the minimum items per thread, so
/// tiny ranges (the exhaustive suite's 4x4 images) run inline instead of
/// paying a thread spawn; the partition never changes results, only where
/// the ranges execute.
template <class Fn>
void launch(int threads, std::int64_t n, std::int64_t grain, Fn&& fn) {
  if (n <= 0) return;
  const int t = static_cast<int>(
      std::clamp<std::int64_t>(n / std::max<std::int64_t>(grain, 1), 1,
                               threads));
  if (t <= 1) {
    fn(std::int64_t{0}, n, 0);
    return;
  }
  const std::int64_t chunk = (n + t - 1) / t;
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(t));
  for (int i = 0; i < t; ++i) {
    const std::int64_t begin = static_cast<std::int64_t>(i) * chunk;
    const std::int64_t end = std::min<std::int64_t>(n, begin + chunk);
    if (begin >= end) break;
    pool.emplace_back([&fn, begin, end, i] { fn(begin, end, i); });
  }
  for (std::thread& th : pool) th.join();
}

LabelResponse run_propagate(ConstImageView image, Connectivity connectivity,
                            LabelScratch& scratch,
                            analysis::ComponentStats* stats,
                            const PropagateConfig& config, int threads) {
  const WallTimer total;
  WallTimer phase;
  LabelResponse result;
  result.labels = scratch.acquire_plane(image.rows(), image.cols(),
                                        LabelScratch::PlaneInit::Dirty);
  if (image.size() == 0) {
    if (stats != nullptr) stats->components.clear();
    return result;
  }

  const std::int64_t n = image.size();
  const std::size_t label_space = static_cast<std::size_t>(n) + 1;
  std::span<Label> parents = scratch.parents(label_space);
  parents[0] = 0;
  const PropagateGrid grid{image.rows(), image.cols(), config.block_rows,
                           config.block_cols};
  const std::int64_t blocks = grid.blocks();
  const std::int64_t lines = grid.boundary_lines();
  const int t = std::max(
      1, threads > 0 ? threads
                     : static_cast<int>(std::thread::hardware_concurrency()));

  // Coarse phase: resolve every cell internally, one head per in-block
  // component. The heads ARE this backend's provisional labels.
  Label heads = 0;
  {
    obs::Span span("propagate.init");
    std::vector<Label> issued(static_cast<std::size_t>(t), 0);
    launch(t, blocks, 4, [&](std::int64_t b0, std::int64_t b1, int slot) {
      issued[static_cast<std::size_t>(slot)] = propagate::init_blocks(
          image, result.labels, parents, grid, connectivity, b0, b1);
    });
    for (const Label h : issued) heads += h;
  }
  result.timings.scan_ms = phase.elapsed_ms();
  result.timings.counters.provisional_labels = heads;
  result.timings.counters.tiles = static_cast<std::uint64_t>(blocks);

  // Propagation rounds: scan seams -> compress references -> refresh seam
  // labels, until no cross-boundary adjacency disagrees.
  phase.reset();
  std::uint64_t passes = 0;
  std::uint64_t pairs = 0;
  std::uint64_t retries = 0;
  {
    obs::Span span("propagate.passes");
    std::vector<ScanResult> seen(static_cast<std::size_t>(t));
    const Label end_label = static_cast<Label>(n) + 1;
    for (;;) {
      ++passes;
      std::fill(seen.begin(), seen.end(), ScanResult{});
      launch(t, lines, 2, [&](std::int64_t l0, std::int64_t l1, int slot) {
        seen[static_cast<std::size_t>(slot)] = propagate::scan_boundary_lines(
            result.labels, parents, grid, connectivity, l0, l1);
      });
      bool changed = false;
      for (const ScanResult& s : seen) {
        pairs += s.pairs;
        retries += s.retries;
        changed = changed || s.changed;
      }
      if (!changed) break;
      launch(t, n, 1 << 14, [&](std::int64_t l0, std::int64_t l1, int) {
        propagate::compress_parents(parents, static_cast<Label>(l0 + 1),
                                    static_cast<Label>(
                                        std::min<std::int64_t>(l1 + 1,
                                                               end_label)));
      });
      launch(t, lines, 2, [&](std::int64_t l0, std::int64_t l1, int) {
        propagate::relabel_boundary_lines(result.labels, parents, grid, l0,
                                          l1);
      });
    }
  }
  result.timings.merge_ms = phase.elapsed_ms();
  result.timings.counters.propagate_passes = passes;
  result.timings.counters.merge_pairs = pairs;
  result.timings.counters.merge_retries = retries;
  obs::gauge("propagate_passes").set(static_cast<double>(passes));
  obs::gauge("propagate_heads").set(static_cast<double>(heads));

  // Fine phase: resolve every pixel through the converged references,
  // count the absorbed heads (the backend's merge_unions — exactly
  // heads - components), then walk the canonical renumber.
  phase.reset();
  {
    obs::Span span("propagate.refine");
    launch(t, n, 1 << 14, [&](std::int64_t p0, std::int64_t p1, int) {
      propagate::refine_pixels(result.labels, parents, p0, p1);
    });
    std::vector<std::uint64_t> absorbed(static_cast<std::size_t>(t), 0);
    launch(t, n, 1 << 14, [&](std::int64_t l0, std::int64_t l1, int slot) {
      absorbed[static_cast<std::size_t>(slot)] = propagate::count_absorbed(
          parents, static_cast<Label>(l0 + 1), static_cast<Label>(l1 + 1));
    });
    for (const std::uint64_t a : absorbed) {
      result.timings.counters.merge_unions += a;
    }
  }
  std::span<Label> remap = scratch.aux(label_space);
  {
    obs::Span span("propagate.renumber");
    result.num_components = propagate::renumber_first_appearance(
        result.labels, remap, connectivity);
  }
  result.timings.flatten_ms = phase.elapsed_ms();

  phase.reset();
  {
    obs::Span span("propagate.relabel");
    launch(t, n, 1 << 14, [&](std::int64_t p0, std::int64_t p1, int) {
      propagate::rewrite_labels(result.labels, remap, p0, p1);
    });
  }
  result.timings.relabel_ms = phase.elapsed_ms();
  result.timings.total_ms = total.elapsed_ms();
  if (stats != nullptr) {
    *stats = analysis::compute_stats(result.labels, result.num_components);
  }
  return result;
}

void require_valid(const PropagateConfig& config) {
  PAREMSP_REQUIRE(config.block_rows >= 1 && config.block_cols >= 1,
                  "propagate block geometry must be at least 1x1");
  PAREMSP_REQUIRE(config.threads >= 0,
                  "propagate threads must be >= 0 (0 = hardware)");
}

}  // namespace

PropagateLabeler::PropagateLabeler(PropagateConfig config,
                                   Connectivity connectivity)
    : Labeler(Algorithm::Propagate, connectivity), config_(config) {
  require_valid(config_);
}

LabelResponse PropagateLabeler::run_impl(
    ConstImageView image, Connectivity connectivity, LabelScratch& scratch,
    analysis::ComponentStats* stats) const {
  return run_propagate(image, connectivity, scratch, stats, config_,
                       /*threads=*/1);
}

PropagateParLabeler::PropagateParLabeler(PropagateConfig config,
                                         Connectivity connectivity)
    : Labeler(Algorithm::PropagatePar, connectivity), config_(config) {
  require_valid(config_);
}

LabelResponse PropagateParLabeler::run_impl(
    ConstImageView image, Connectivity connectivity, LabelScratch& scratch,
    analysis::ComponentStats* stats) const {
  return run_propagate(image, connectivity, scratch, stats, config_,
                       config_.threads);
}

}  // namespace paremsp
