#include "baselines/run_he2008.hpp"

#include <vector>

#include "analysis/component_stats.hpp"
#include "common/contracts.hpp"
#include "common/timer.hpp"
#include "unionfind/rtable.hpp"

namespace paremsp {

namespace {

/// Maximal horizontal run of foreground pixels: columns [begin, end).
struct Run {
  Coord begin = 0;
  Coord end = 0;
  Label label = 0;
};

}  // namespace

LabelResponse RunLabeler::run_impl(ConstImageView image,
                                   Connectivity connectivity,
                                   LabelScratch& scratch,
                                   analysis::ComponentStats* stats) const {
  (void)connectivity;  // 8-only; run() rejected anything else
  (void)scratch;       // run-based baseline: per-call run lists
  const WallTimer total;
  LabelResponse result;
  result.labels = LabelImage(image.rows(), image.cols());
  if (image.size() == 0) return result;

  const Coord rows = image.rows();
  const Coord cols = image.cols();

  // A run needs >= 1 pixel plus a separating background pixel, except the
  // last: at most (cols+1)/2 runs per row can get fresh labels.
  uf::EquivalenceTable table(
      static_cast<Label>(static_cast<std::int64_t>(rows) * ((cols + 1) / 2)));

  // First scan: extract runs, connect to overlapping runs one row up.
  WallTimer phase;
  std::vector<std::vector<Run>> row_runs(static_cast<std::size_t>(rows));
  for (Coord r = 0; r < rows; ++r) {
    auto& runs = row_runs[static_cast<std::size_t>(r)];
    const auto* prev =
        r > 0 ? &row_runs[static_cast<std::size_t>(r - 1)] : nullptr;
    std::size_t pi = 0;  // two-pointer sweep over the previous row's runs

    Coord c = 0;
    while (c < cols) {
      if (image(r, c) == 0) {
        ++c;
        continue;
      }
      Run run;
      run.begin = c;
      while (c < cols && image(r, c) != 0) ++c;
      run.end = c;

      if (prev != nullptr) {
        // 8-connectivity: overlap window widens by one on each side.
        // Window columns are [lo, hi); run [b, e) overlaps iff b < hi and
        // e > lo. Runs are sorted and disjoint, so begins *and* ends are
        // increasing: skip the dead prefix once, keep `pi` for the next
        // run of this row (a previous-row run can overlap several runs).
        const Coord lo = run.begin - 1;
        const Coord hi = run.end + 1;  // exclusive
        while (pi < prev->size() && (*prev)[pi].end <= lo) ++pi;
        std::size_t j = pi;
        while (j < prev->size() && (*prev)[j].begin < hi) {
          const Label other = (*prev)[j].label;
          run.label = run.label == 0 ? table.representative(other)
                                     : table.resolve(run.label, other);
          ++j;
        }
      }
      if (run.label == 0) run.label = table.new_label();
      runs.push_back(run);
    }
  }
  result.timings.scan_ms = phase.elapsed_ms();

  phase.reset();
  result.num_components = table.flatten_consecutive();
  result.timings.flatten_ms = phase.elapsed_ms();

  // Second scan: paint final labels run by run (background stays 0).
  phase.reset();
  const auto final_of = table.final_labels();
  for (Coord r = 0; r < rows; ++r) {
    for (const Run& run : row_runs[static_cast<std::size_t>(r)]) {
      const Label l = final_of[static_cast<std::size_t>(run.label)];
      Label* out = result.labels.row(r);
      for (Coord c = run.begin; c < run.end; ++c) out[c] = l;
    }
  }
  result.timings.relabel_ms = phase.elapsed_ms();
  result.timings.total_ms = total.elapsed_ms();
  if (stats != nullptr) {
    *stats = analysis::compute_stats(result.labels, result.num_components);
  }
  return result;
}

}  // namespace paremsp
