// Ablation: scan strategy and equivalence structure — the two axes the
// paper's sequential algorithms vary.
//
//   scan axis:   one-line decision tree (Wu)  vs  two-line mask (He)
//   equiv axis:  Wu array union-find  vs  REM splicing  vs  He rtable
//
// The paper's Table II covers four of the six combinations; this bench
// reports those four plus the flood-fill oracle, isolating where AREMSP's
// advantage comes from (the paper's claim: the two-line scan buys more
// than the union-find swap).
#include <iostream>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "core/paremsp_all.hpp"

int main() {
  using namespace paremsp;
  using namespace paremsp::bench;

  print_banner("Ablation: scan strategy x equivalence structure");

  const int reps = bench_reps();

  struct Entry {
    const char* name;
    const char* scan;
    const char* equiv;
    Algorithm algorithm;
  };
  const Entry entries[] = {
      {"ccllrpc", "one-line tree", "Wu array UF", Algorithm::Ccllrpc},
      {"cclremsp", "one-line tree", "REM splice", Algorithm::Cclremsp},
      {"arun", "two-line", "He rtable", Algorithm::Arun},
      {"aremsp", "two-line", "REM splice", Algorithm::Aremsp},
      {"floodfill", "BFS", "(none)", Algorithm::FloodFill},
  };

  for (const auto& family : all_families()) {
    TextTable table("Family: " + family.name + " — mean over " +
                    std::to_string(family.images.size()) +
                    " images [msec]");
    table.set_header({"Algorithm", "Scan", "Equivalence", "Scan ms",
                      "Flatten ms", "Relabel ms", "Total ms"});
    for (const auto& e : entries) {
      const auto labeler = make_labeler(e.algorithm);
      RunningStats scan_ms;
      RunningStats flatten_ms;
      RunningStats relabel_ms;
      RunningStats total_ms;
      for (const auto& img : family.images) {
        const PhaseTimings t = time_labeler_phases(*labeler, img.image, reps);
        scan_ms.add(t.scan_ms);
        flatten_ms.add(t.flatten_ms);
        relabel_ms.add(t.relabel_ms);
        total_ms.add(t.total_ms);
      }
      table.add_row({e.name, e.scan, e.equiv, TextTable::num(scan_ms.mean()),
                     TextTable::num(flatten_ms.mean(), 3),
                     TextTable::num(relabel_ms.mean(), 3),
                     TextTable::num(total_ms.mean())});
    }
    std::cout << table.to_string() << '\n';
  }

  std::cout
      << "Expected shape (paper Table II): two-line scans beat one-line\n"
      << "scans; REM splice edges out both Wu's union-find and He's rtable;\n"
      << "aremsp is fastest overall, ahead of arun by a few percent.\n";
  return 0;
}
