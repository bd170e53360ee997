#include "baselines/flood_fill.hpp"

#include <span>

#include "analysis/component_stats.hpp"
#include "common/timer.hpp"
#include "core/label_scratch.hpp"
#include "image/connectivity.hpp"

namespace paremsp {

LabelResponse FloodFillLabeler::run_impl(ConstImageView image,
                                         Connectivity connectivity,
                                         LabelScratch& scratch,
                                         analysis::ComponentStats* stats)
    const {
  const WallTimer total;
  LabelResponse result;
  result.labels = scratch.acquire_plane(image.rows(), image.cols());
  if (image.size() == 0) return result;

  const Coord rows = image.rows();
  const Coord cols = image.cols();
  LabelImage& labels = result.labels;
  const auto offsets = neighbors(connectivity);

  // BFS queue of flat pixel indices, reset per component so its capacity
  // tracks the largest component (like the old std::vector queue did),
  // not the whole image; it doubles on demand and the high-water mark is
  // reused allocation-free across a warm scratch.
  const auto n = static_cast<std::size_t>(image.size());
  std::span<Label> queue = scratch.aux(std::min<std::size_t>(n, 1024));
  std::int64_t head = 0;
  std::int64_t tail = 0;
  const auto push = [&](Coord r, Coord c) {
    if (static_cast<std::size_t>(tail) == queue.size()) {
      // aux() preserves existing contents when it grows.
      queue = scratch.aux(std::min<std::size_t>(n, queue.size() * 2));
    }
    queue[static_cast<std::size_t>(tail++)] = r * cols + c;
  };
  Label next_label = 0;

  for (Coord r0 = 0; r0 < rows; ++r0) {
    for (Coord c0 = 0; c0 < cols; ++c0) {
      if (image(r0, c0) == 0 || labels(r0, c0) != 0) continue;
      ++next_label;
      labels(r0, c0) = next_label;
      head = tail = 0;
      push(r0, c0);
      for (; head < tail; ++head) {
        const Label idx = queue[static_cast<std::size_t>(head)];
        const Coord r = idx / cols;
        const Coord c = idx % cols;
        for (const auto& d : offsets) {
          const Coord nr = r + d.dr;
          const Coord nc = c + d.dc;
          if (!image.in_bounds(nr, nc)) continue;
          if (image(nr, nc) == 0 || labels(nr, nc) != 0) continue;
          labels(nr, nc) = next_label;
          push(nr, nc);
        }
      }
    }
  }

  result.num_components = next_label;
  result.timings.scan_ms = total.elapsed_ms();
  result.timings.total_ms = result.timings.scan_ms;
  if (stats != nullptr) {
    *stats = analysis::compute_stats(result.labels, result.num_components);
  }
  return result;
}

}  // namespace paremsp
