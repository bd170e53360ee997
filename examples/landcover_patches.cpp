// Landcover patch analysis — the paper's large-scale workload (US NLCD
// 2006 rasters up to 465.2 MB) recreated synthetically.
//
// Labels an NLCD-like landcover mask with sequential AREMSP and parallel
// PAREMSP, verifies they agree, reports the largest patches (the quantity
// terrain analyses extract), and shows the parallel phase breakdown that
// Figure 5 of the paper is about.
//
//   $ ./landcover_patches --size 2048 --threads 4
#include <algorithm>
#include <iostream>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/paremsp_all.hpp"

int main(int argc, char** argv) {
  using namespace paremsp;

  CliParser cli("landcover_patches: NLCD-style patch analysis");
  cli.add_option("size", "1536", "raster side length [px]");
  cli.add_option("seed", "2006", "random seed");
  cli.add_option("threads", "0", "PAREMSP threads (0 = all hardware threads)");
  cli.add_option("top", "8", "how many patches to list");
  if (!cli.parse(argc, argv)) return 0;

  const Coord side = cli.get_int("size");
  std::cout << "synthesizing " << side << "x" << side
            << " landcover raster...\n";
  const BinaryImage raster = gen::landcover_like(
      side, side, static_cast<std::uint64_t>(cli.get_int("seed")), 4);

  // Sequential and parallel labelings must agree bit-for-bit.
  const AremspLabeler sequential;
  const ParemspLabeler parallel(ParemspConfig{cli.get_int("threads")});
  const LabelResponse seq = sequential.label(raster);
  const LabelResponse par = parallel.label(raster);
  if (seq.labels != par.labels) {
    std::cerr << "BUG: sequential and parallel labelings differ!\n";
    return 1;
  }

  std::cout << "patches found: " << par.num_components << "\n\n";

  TextTable timing("timing [msec]");
  timing.set_header({"algorithm", "scan", "merge", "flatten", "relabel",
                     "total"});
  const auto row = [&](const char* name, const PhaseTimings& t) {
    timing.add_row({name, TextTable::num(t.scan_ms),
                    TextTable::num(t.merge_ms), TextTable::num(t.flatten_ms),
                    TextTable::num(t.relabel_ms),
                    TextTable::num(t.total_ms)});
  };
  row("aremsp (1 thread)", seq.timings);
  row("paremsp", par.timings);
  timing.add_row({"speedup", "", "", "", "",
                  TextTable::num(seq.timings.total_ms /
                                 par.timings.total_ms)});
  std::cout << timing.to_string() << '\n';

  // Largest patches with their geometry.
  const auto stats = analysis::compute_stats(par.labels, par.num_components);
  std::vector<const analysis::ComponentInfo*> order;
  order.reserve(stats.components.size());
  for (const auto& c : stats.components) order.push_back(&c);
  std::sort(order.begin(), order.end(),
            [](const auto* a, const auto* b) { return a->area > b->area; });

  TextTable top("largest patches");
  top.set_header({"rank", "label", "area [px]", "share", "bbox", "centroid"});
  const int limit = std::min<int>(cli.get_int("top"),
                                  static_cast<int>(order.size()));
  for (int i = 0; i < limit; ++i) {
    const auto& c = *order[static_cast<std::size_t>(i)];
    const double share =
        100.0 * static_cast<double>(c.area) / static_cast<double>(raster.size());
    top.add_row({std::to_string(i + 1), std::to_string(c.label),
                 std::to_string(c.area), TextTable::num(share) + "%",
                 std::to_string(c.bbox.height()) + "x" +
                     std::to_string(c.bbox.width()),
                 "(" + TextTable::num(c.centroid_row, 0) + ", " +
                     TextTable::num(c.centroid_col, 0) + ")"});
  }
  std::cout << top.to_string();
  return 0;
}
