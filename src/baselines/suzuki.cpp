#include "baselines/suzuki.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "analysis/component_stats.hpp"
#include "common/timer.hpp"
#include "image/connectivity.hpp"

namespace paremsp {

namespace {

/// Offsets of the four neighbors already visited in a forward raster scan
/// (upper row + left), and their mirror for backward scans.
constexpr Offset kForward8[] = {{-1, -1}, {-1, 0}, {-1, 1}, {0, -1}};
constexpr Offset kBackward8[] = {{1, 1}, {1, 0}, {1, -1}, {0, 1}};
constexpr Offset kForward4[] = {{-1, 0}, {0, -1}};
constexpr Offset kBackward4[] = {{1, 0}, {0, 1}};

}  // namespace

LabelResponse SuzukiLabeler::run_impl(ConstImageView image,
                                      Connectivity connectivity,
                                      LabelScratch& scratch,
                                      analysis::ComponentStats* stats)
    const {
  (void)scratch;  // multi-pass baseline: keeps its per-call table
  const WallTimer total;
  LabelResponse result;
  result.labels = LabelImage(image.rows(), image.cols());
  last_scan_count_ = 0;
  if (image.size() == 0) return result;

  const Coord rows = image.rows();
  const Coord cols = image.cols();
  LabelImage& labels = result.labels;
  const bool eight = connectivity == Connectivity::Eight;

  // Suzuki's label connection table: T[l] is a smaller label known to be
  // equivalent to l (T[l] <= l, T[root] == root). Every update writes the
  // minimum over the labels in a pixel's neighborhood, so entries only
  // ever decrease — the table is always *sound* (never claims a false
  // equivalence), which is all convergence needs.
  std::vector<Label> t(static_cast<std::size_t>(image.size()) / 2 + 2);
  Label count = 0;

  const std::span<const Offset> fwd =
      eight ? std::span<const Offset>(kForward8)
            : std::span<const Offset>(kForward4);
  const std::span<const Offset> bwd =
      eight ? std::span<const Offset>(kBackward8)
            : std::span<const Offset>(kBackward4);

  WallTimer phase;

  // --- Initial forward scan: provisional labels + first equivalences ------
  for (Coord r = 0; r < rows; ++r) {
    for (Coord c = 0; c < cols; ++c) {
      if (image(r, c) == 0) {
        labels(r, c) = 0;
        continue;
      }
      Label m = 0;
      for (const auto& d : fwd) {
        const Coord nr = r + d.dr;
        const Coord nc = c + d.dc;
        if (nr < 0 || nc < 0 || nc >= cols || image(nr, nc) == 0) continue;
        const Label tl = t[static_cast<std::size_t>(labels(nr, nc))];
        m = (m == 0) ? tl : std::min(m, tl);
      }
      if (m == 0) {
        ++count;
        t[static_cast<std::size_t>(count)] = count;
        m = count;
      } else {
        // All mask labels are equivalent to m; re-point their table
        // entries (monotone: m is the minimum of the old entries).
        for (const auto& d : fwd) {
          const Coord nr = r + d.dr;
          const Coord nc = c + d.dc;
          if (nr < 0 || nc < 0 || nc >= cols || image(nr, nc) == 0) continue;
          t[static_cast<std::size_t>(labels(nr, nc))] = m;
        }
      }
      labels(r, c) = m;
    }
  }
  int scans = 1;

  // --- Alternating min-label scans until stable ----------------------------
  bool changed = true;
  while (changed) {
    changed = false;
    const bool backward = (scans % 2) == 1;
    const std::span<const Offset> mask = backward ? bwd : fwd;
    for (Coord rr = 0; rr < rows; ++rr) {
      const Coord r = backward ? rows - 1 - rr : rr;
      for (Coord k = 0; k < cols; ++k) {
        const Coord c = backward ? cols - 1 - k : k;
        if (image(r, c) == 0) continue;
        const Label own = labels(r, c);
        Label m = t[static_cast<std::size_t>(own)];
        for (const auto& d : mask) {
          const Coord nr = r + d.dr;
          const Coord nc = c + d.dc;
          if (nr < 0 || nr >= rows || nc < 0 || nc >= cols ||
              image(nr, nc) == 0) {
            continue;
          }
          m = std::min(m, t[static_cast<std::size_t>(labels(nr, nc))]);
        }
        // Re-point the whole neighborhood (own label included) at m. A
        // lowered table entry counts as a change: a pixel visited earlier
        // this pass may depend on it, so the scan cannot be the last one.
        if (m < t[static_cast<std::size_t>(own)]) {
          t[static_cast<std::size_t>(own)] = m;
          changed = true;
        }
        for (const auto& d : mask) {
          const Coord nr = r + d.dr;
          const Coord nc = c + d.dc;
          if (nr < 0 || nr >= rows || nc < 0 || nc >= cols ||
              image(nr, nc) == 0) {
            continue;
          }
          Label& tn = t[static_cast<std::size_t>(labels(nr, nc))];
          if (m < tn) {
            tn = m;
            changed = true;
          }
        }
        if (m != own) {
          labels(r, c) = m;
          changed = true;
        }
      }
    }
    ++scans;
  }
  last_scan_count_ = scans;
  result.timings.scan_ms = phase.elapsed_ms();

  // --- Consecutive renumbering ---------------------------------------------
  // At convergence every pixel's label l is a table fixpoint (T[l] == l),
  // and distinct components hold disjoint label sets, so fixpoints are
  // exactly the surviving labels.
  phase.reset();
  Label k = 0;
  for (Label l = 1; l <= count; ++l) {
    if (t[static_cast<std::size_t>(l)] == l) {
      t[static_cast<std::size_t>(l)] = ++k;
    }
  }
  result.num_components = k;
  result.timings.flatten_ms = phase.elapsed_ms();

  phase.reset();
  for (Label& l : labels.pixels()) {
    if (l != 0) l = t[static_cast<std::size_t>(l)];
  }
  result.timings.relabel_ms = phase.elapsed_ms();
  result.timings.total_ms = total.elapsed_ms();
  if (stats != nullptr) {
    *stats = analysis::compute_stats(result.labels, result.num_components);
  }
  return result;
}

}  // namespace paremsp
