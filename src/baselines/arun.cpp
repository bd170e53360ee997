#include "baselines/arun.hpp"

#include "analysis/component_stats.hpp"
#include "common/timer.hpp"
#include "core/scan_two_line.hpp"
#include "unionfind/rtable.hpp"

namespace paremsp {

LabelResponse ArunLabeler::run_impl(ConstImageView image,
                                    Connectivity connectivity,
                                    LabelScratch& scratch,
                                    analysis::ComponentStats* stats) const {
  (void)connectivity;  // 8-only; run() rejected anything else
  (void)scratch;       // rtable baseline: per-call equivalence table
  const WallTimer total;
  LabelResponse result;
  result.labels = LabelImage(image.rows(), image.cols());
  if (image.size() == 0) return result;

  // The two-line mask issues at most one label per two-pixel visit; the
  // pixel count is a generous upper bound for the table capacity.
  uf::EquivalenceTable table(
      static_cast<Label>(image.size() / 2 + image.cols() + 2));

  WallTimer phase;
  RtableEquiv eq(table);
  scan_two_line(image, result.labels, eq, 0, image.rows());
  result.timings.scan_ms = phase.elapsed_ms();

  phase.reset();
  result.num_components = table.flatten_consecutive();
  result.timings.flatten_ms = phase.elapsed_ms();

  phase.reset();
  const auto final_of = table.final_labels();
  for (Label& l : result.labels.pixels()) {
    if (l != 0) l = final_of[static_cast<std::size_t>(l)];
  }
  result.timings.relabel_ms = phase.elapsed_ms();
  result.timings.total_ms = total.elapsed_ms();
  if (stats != nullptr) {
    *stats = analysis::compute_stats(result.labels, result.num_components);
  }
  return result;
}

}  // namespace paremsp
