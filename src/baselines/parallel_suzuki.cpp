#include "baselines/parallel_suzuki.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#include "analysis/component_stats.hpp"
#include "common/contracts.hpp"
#include "common/env.hpp"
#include "common/executor.hpp"
#include "common/timer.hpp"

namespace paremsp {

namespace {

inline Label load(const Label* p, std::int64_t i) noexcept {
  return std::atomic_ref<const Label>(p[i]).load(std::memory_order_relaxed);
}

inline void store(Label* p, std::int64_t i, Label v) noexcept {
  std::atomic_ref<Label>(p[i]).store(v, std::memory_order_relaxed);
}

}  // namespace

ParallelSuzukiLabeler::ParallelSuzukiLabeler(Connectivity connectivity,
                                             int threads)
    : Labeler(Algorithm::SuzukiParallel, connectivity), threads_(threads) {
  PAREMSP_REQUIRE(threads >= 0, "threads must be >= 0");
}

LabelResponse ParallelSuzukiLabeler::run_impl(
    ConstImageView image, Connectivity connectivity, LabelScratch& scratch,
    analysis::ComponentStats* stats) const {
  (void)scratch;  // multi-pass baseline: per-call remap tables
  const WallTimer total;
  LabelResponse result;
  result.labels = LabelImage(image.rows(), image.cols());
  last_iterations_ = 0;
  if (image.size() == 0) return result;

  const Coord rows = image.rows();
  const Coord cols = image.cols();
  const bool eight = connectivity == Connectivity::Eight;
  const int requested = threads_ > 0 ? threads_ : hardware_threads();
  const int nchunks =
      std::clamp<int>(requested, 1, static_cast<int>(std::max<Coord>(rows, 1)));
  const auto pieces = static_cast<std::size_t>(nchunks);
  const std::int64_t work = image.size();

  // Row ranges per chunk.
  std::vector<Coord> begin(static_cast<std::size_t>(nchunks) + 1, 0);
  for (int t = 0; t <= nchunks; ++t) {
    begin[static_cast<std::size_t>(t)] =
        static_cast<Coord>(static_cast<std::int64_t>(rows) * t / nchunks);
  }

  LabelImage& labels = result.labels;
  Label* lp = labels.pixels().data();

  WallTimer phase;
  // Initial labels: flat index + 1 (so the converged label of a component
  // is the flat index of its raster-first pixel + 1).
  parallel_for(pieces, work, nchunks, [&](std::size_t t) {
    for (Coord r = begin[t]; r < begin[t + 1]; ++r) {
      for (Coord c = 0; c < cols; ++c) {
        labels(r, c) =
            image(r, c) != 0 ? static_cast<Label>(r) * cols + c + 1 : 0;
      }
    }
  });

  // Min-label sweeps until a full iteration changes nothing.
  const auto relax = [&](Coord r, Coord c) -> bool {
    const std::int64_t idx = static_cast<std::int64_t>(r) * cols + c;
    Label m = load(lp, idx);
    if (m == 0) return false;
    const auto consider = [&](Coord nr, Coord nc) {
      if (nr < 0 || nr >= rows || nc < 0 || nc >= cols) return;
      if (image(nr, nc) == 0) return;
      const Label v = load(lp, static_cast<std::int64_t>(nr) * cols + nc);
      if (v != 0 && v < m) m = v;
    };
    consider(r - 1, c);
    consider(r + 1, c);
    consider(r, c - 1);
    consider(r, c + 1);
    if (eight) {
      consider(r - 1, c - 1);
      consider(r - 1, c + 1);
      consider(r + 1, c - 1);
      consider(r + 1, c + 1);
    }
    if (m < load(lp, idx)) {
      store(lp, idx, m);
      return true;
    }
    return false;
  };

  int iterations = 0;
  // One flag per chunk, OR-reduced after each sweep.
  std::vector<std::uint8_t> chunk_changed(pieces, 0);
  bool changed = true;
  while (changed) {
    ++iterations;
    parallel_for(pieces, work, nchunks, [&](std::size_t t) {
      bool local = false;
      const Coord r0 = begin[t];
      const Coord r1 = begin[t + 1];
      for (Coord r = r0; r < r1; ++r) {  // forward sweep
        for (Coord c = 0; c < cols; ++c) local |= relax(r, c);
      }
      for (Coord r = r1 - 1; r >= r0; --r) {  // backward sweep
        for (Coord c = cols - 1; c >= 0; --c) local |= relax(r, c);
      }
      chunk_changed[t] = local ? 1 : 0;
    });
    changed = std::any_of(chunk_changed.begin(), chunk_changed.end(),
                          [](std::uint8_t c) { return c != 0; });
  }
  last_iterations_ = iterations;
  result.timings.scan_ms = phase.elapsed_ms();

  // Consecutive renumbering in raster-first order: component labels are
  // flat-min indices, so increasing label value == raster order.
  phase.reset();
  std::vector<std::uint8_t> used(static_cast<std::size_t>(image.size()) + 1,
                                 0);
  for (const Label l : labels.pixels()) {
    if (l != 0) used[static_cast<std::size_t>(l)] = 1;
  }
  std::vector<Label> remap(used.size(), 0);
  Label k = 0;
  for (std::size_t i = 1; i < used.size(); ++i) {
    if (used[i] != 0) remap[i] = ++k;
  }
  result.num_components = k;
  result.timings.flatten_ms = phase.elapsed_ms();

  phase.reset();
  parallel_for(pieces, work, nchunks, [&](std::size_t t) {
    const std::int64_t end = static_cast<std::int64_t>(begin[t + 1]) * cols;
    for (std::int64_t i = static_cast<std::int64_t>(begin[t]) * cols; i < end;
         ++i) {
      if (lp[i] != 0) lp[i] = remap[static_cast<std::size_t>(lp[i])];
    }
  });
  result.timings.relabel_ms = phase.elapsed_ms();
  result.timings.total_ms = total.elapsed_ms();
  if (stats != nullptr) {
    *stats = analysis::compute_stats(result.labels, result.num_components);
  }
  return result;
}

}  // namespace paremsp
