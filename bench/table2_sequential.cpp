// Reproduces paper Table II: execution times [msec] of the sequential
// algorithms CCLLRPC, CCLREMSP, ARUN and AREMSP over the four dataset
// families (min / average / max across the images of each family).
//
// Shape claims, checked by the "Shape check" lines the bench prints:
//   * AREMSP is the fastest sequential algorithm on every family;
//   * ordering AREMSP <= ARUN < CCLREMSP < CCLLRPC;
//   * AREMSP ~39% faster than CCLLRPC and ~4% faster than ARUN (paper's
//     headline sequential numbers).
#include <iostream>
#include <map>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "core/paremsp_all.hpp"

namespace {

using namespace paremsp;
using namespace paremsp::bench;

// Paper Table II [msec] for side-by-side comparison.
struct PaperRow {
  const char* family;
  const char* stat;
  double ccllrpc, cclremsp, arun, aremsp;
};
constexpr PaperRow kPaperTable2[] = {
    {"Aerial", "Min", 2.5, 2.48, 1.98, 1.95},
    {"Aerial", "Average", 13.68, 13.25, 11.90, 11.86},
    {"Aerial", "Max", 86.64, 80.90, 72.92, 70.17},
    {"Texture", "Min", 2.07, 2.06, 1.58, 1.53},
    {"Texture", "Average", 8.42, 8.20, 7.32, 7.27},
    {"Texture", "Max", 16.86, 16.18, 14.81, 14.47},
    {"Misc", "Min", 0.50, 0.49, 0.36, 0.36},
    {"Misc", "Average", 3.28, 3.21, 2.75, 2.74},
    {"Misc", "Max", 12.96, 12.81, 11.30, 11.20},
    {"NLCD", "Min", 4.61, 4.46, 3.77, 3.75},
    {"NLCD", "Average", 307.66, 299.55, 244.88, 242.59},
    {"NLCD", "Max", 1307.27, 1273.82, 1036.52, 1021.45},
};

}  // namespace

int main() {
  print_banner("Table II: sequential algorithm comparison");

  const Algorithm algos[] = {Algorithm::Ccllrpc, Algorithm::Cclremsp,
                             Algorithm::Arun, Algorithm::Aremsp};
  const int reps = bench_reps();

  TextTable measured("Measured execution times [msec]");
  measured.set_header(
      {"Image type", "", "CCLLRPC", "CCLRemSP", "ARun", "ARemSP"});

  // Per-family average of AREMSP vs the others for the headline ratios.
  double sum_aremsp = 0.0;
  double sum_ccllrpc = 0.0;
  double sum_arun = 0.0;

  for (const auto& family : all_families()) {
    std::map<Algorithm, Summary> summary;
    for (const Algorithm a : algos) {
      summary[a] = family_summary(*make_labeler(a), family.images, reps);
    }
    sum_aremsp += summary[Algorithm::Aremsp].mean;
    sum_ccllrpc += summary[Algorithm::Ccllrpc].mean;
    sum_arun += summary[Algorithm::Arun].mean;

    const auto row = [&](const char* stat, auto pick) {
      measured.add_row({family.name, stat,
                        TextTable::num(pick(summary[Algorithm::Ccllrpc])),
                        TextTable::num(pick(summary[Algorithm::Cclremsp])),
                        TextTable::num(pick(summary[Algorithm::Arun])),
                        TextTable::num(pick(summary[Algorithm::Aremsp]))});
    };
    measured.add_separator();
    row("Min", [](const Summary& s) { return s.min; });
    row("Average", [](const Summary& s) { return s.mean; });
    row("Max", [](const Summary& s) { return s.max; });
  }
  std::cout << measured.to_string() << '\n';

  TextTable paper("Paper Table II (Cray XE6, USC-SIPI + NLCD) [msec]");
  paper.set_header(
      {"Image type", "", "CCLLRPC", "CCLRemSP", "ARun", "ARemSP"});
  const char* last_family = "";
  for (const auto& row : kPaperTable2) {
    if (std::string_view(row.family) != last_family) {
      paper.add_separator();
      last_family = row.family;
    }
    paper.add_row({row.family, row.stat, TextTable::num(row.ccllrpc),
                   TextTable::num(row.cclremsp), TextTable::num(row.arun),
                   TextTable::num(row.aremsp)});
  }
  std::cout << paper.to_string() << '\n';

  const double vs_ccllrpc = 100.0 * (sum_ccllrpc - sum_aremsp) / sum_ccllrpc;
  const double vs_arun = 100.0 * (sum_arun - sum_aremsp) / sum_arun;
  std::cout << "Shape check: AREMSP vs CCLLRPC: " << TextTable::num(vs_ccllrpc)
            << "% faster (paper: ~28% across Table II, 39% headline)\n"
            << "Shape check: AREMSP vs ARUN:    " << TextTable::num(vs_arun)
            << "% faster (paper: ~1-4%)\n";
  return 0;
}
