#include "core/aremsp.hpp"

#include <span>

#include "analysis/feature_accumulator.hpp"
#include "common/contracts.hpp"
#include "common/timer.hpp"
#include "core/label_scratch.hpp"
#include "core/scan_two_line.hpp"
#include "obs/trace.hpp"
#include "unionfind/rem.hpp"

namespace paremsp {

LabelResponse AremspLabeler::run_impl(ConstImageView image,
                                      Connectivity connectivity,
                                      LabelScratch& scratch,
                                      analysis::ComponentStats* stats) const {
  (void)connectivity;  // 8-only; run() rejected anything else
  const WallTimer total;
  // The scan timer opens at entry: workspace acquisition (plane +
  // parent-table first touch) is accounted to the scan phase, so the four
  // phase timings partition total_ms — the exporters' reconcile contract.
  WallTimer phase;
  LabelResponse result;
  result.labels =
      scratch.acquire_plane(image.rows(), image.cols(),
                            LabelScratch::PlaneInit::Dirty);
  if (image.size() == 0) return result;

  const std::size_t label_space = static_cast<std::size_t>(image.size()) + 1;
  std::span<Label> p = scratch.parents(label_space);

  // Phase I — with the feature sink fused in when stats are requested:
  // every pixel is measured in the same visit that labels it.
  std::uint64_t scan_joins = 0;
  RemEquiv eq(p, 0, &scan_joins);
  Label count = 0;
  std::span<analysis::FeatureCell> cells;
  {
    obs::Span span("aremsp.scan");
    if (stats != nullptr) {
      cells = scratch.feature_cells(label_space);
      analysis::FeatureAccumulator sink(cells);
      count = scan_two_line(image, result.labels, eq, sink, 0, image.rows());
    } else {
      count = scan_two_line(image, result.labels, eq, 0, image.rows());
    }
  }
  result.timings.scan_ms = phase.elapsed_ms();
  result.timings.counters.provisional_labels = count;
  result.timings.counters.scan_unions = scan_joins;
  result.timings.counters.tiles = 1;

  // FLATTEN — then reduce the per-provisional cells through the resolved
  // parents: O(count) label-table work instead of an O(pixels) re-read.
  phase.reset();
  {
    obs::Span span("aremsp.flatten");
    result.num_components = uf::rem_flatten(p.data(), count);
    if (stats != nullptr) {
      stats->components.assign(
          static_cast<std::size_t>(result.num_components), {});
      if (count > 0) {
        analysis::fold_features(cells, p, 1, count, stats->components);
        analysis::finalize_components(stats->components);
      }
    }
  }
  result.timings.flatten_ms = phase.elapsed_ms();

  phase.reset();
  {
    obs::Span span("aremsp.relabel");
    for (Label& l : result.labels.pixels()) {
      if (l != 0) l = p[l];
    }
  }
  result.timings.relabel_ms = phase.elapsed_ms();
  result.timings.total_ms = total.elapsed_ms();
  return result;
}

}  // namespace paremsp
