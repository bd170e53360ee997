#include "baselines/ccllrpc.hpp"

#include <span>

#include "common/timer.hpp"
#include "core/label_scratch.hpp"
#include "core/scan_one_line.hpp"
#include "unionfind/rem.hpp"

namespace paremsp {

LabelResponse CcllrpcLabeler::run_impl(ConstImageView image,
                                       Connectivity connectivity,
                                       LabelScratch& scratch,
                                       analysis::ComponentStats* stats)
    const {
  const WallTimer total;
  LabelResponse result;
  result.labels =
      scratch.acquire_plane(image.rows(), image.cols(),
                            LabelScratch::PlaneInit::Dirty);
  if (image.size() == 0) return result;

  std::span<Label> p =
      scratch.parents(static_cast<std::size_t>(image.size()) + 1);

  WallTimer phase;
  WuEquiv eq(p);
  const Label count = scan_one_line(image, result.labels, eq, connectivity);
  result.timings.scan_ms = phase.elapsed_ms();

  // Wu's union-find also keeps p[i] <= i, so Algorithm 3's FLATTEN applies
  // unchanged (this is what makes the CCLLRPC/CCLREMSP comparison isolate
  // the union-find implementation).
  phase.reset();
  result.num_components = uf::rem_flatten(p.data(), count);
  result.timings.flatten_ms = phase.elapsed_ms();

  phase.reset();
  for (Label& l : result.labels.pixels()) {
    if (l != 0) l = p[l];
  }
  result.timings.relabel_ms = phase.elapsed_ms();
  result.timings.total_ms = total.elapsed_ms();
  if (stats != nullptr) {
    *stats = analysis::compute_stats(result.labels, result.num_components);
  }
  return result;
}

}  // namespace paremsp
