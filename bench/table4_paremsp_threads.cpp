// Reproduces paper Table IV: execution time [msec] of PAREMSP at 2, 6, 16
// and 24 threads for each dataset family (min / average / max across the
// images of the family).
//
// Shape claims, read off the measured table against the paper's Table IV
// that the bench prints below it:
//   * times drop with threads up to the physical core count;
//   * small families (~1 MP) stop improving — or regress — at high thread
//     counts (the paper observes the same: "thread creation and
//     termination overhead will affect the performance");
//   * the large NLCD family keeps benefiting the longest.
#include <iostream>
#include <map>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "core/paremsp_all.hpp"

namespace {

using namespace paremsp;
using namespace paremsp::bench;

struct PaperRow {
  const char* family;
  const char* stat;
  double t2, t6, t16, t24;
};
constexpr PaperRow kPaperTable4[] = {
    {"Aerial", "Min", 1.39, 0.84, 1.02, 1.38},
    {"Aerial", "Average", 7.92, 3.03, 1.87, 2.15},
    {"Aerial", "Max", 46.86, 16.72, 7.32, 6.97},
    {"Texture", "Min", 1.09, 0.62, 0.93, 1.36},
    {"Texture", "Average", 4.91, 1.99, 1.45, 1.82},
    {"Texture", "Max", 9.75, 3.56, 2.11, 2.34},
    {"Miscellaneous", "Min", 0.36, 0.36, 0.79, 1.18},
    {"Miscellaneous", "Average", 1.99, 0.97, 1.05, 1.46},
    {"Miscellaneous", "Max", 7.96, 3.24, 1.91, 2.27},
    {"NLCD", "Min", 2.52, 1.16, 1.32, 1.67},
    {"NLCD", "Average", 162.86, 58.50, 20.20, 13.47},
    {"NLCD", "Max", 676.41, 184.71, 78.33, 51.00},
};

}  // namespace

int main() {
  print_banner("Table IV: PAREMSP execution time by thread count");

  const std::vector<int> threads = sweep_thread_counts({2, 6, 16, 24});
  const int reps = bench_reps();

  std::vector<std::string> header{"Image type", ""};
  for (const int t : threads) {
    header.push_back(std::to_string(t) + oversubscription_note(t));
  }
  TextTable measured("Measured execution time [msec] of PAREMSP");
  measured.set_header(header);

  for (const auto& family : all_families()) {
    std::map<int, Summary> by_threads;
    for (const int t : threads) {
      const ParemspLabeler labeler(ParemspConfig{t});
      by_threads[t] = family_summary(labeler, family.images, reps);
    }
    const auto row = [&](const char* stat, auto pick) {
      std::vector<std::string> cells{family.name, stat};
      for (const int t : threads) {
        cells.push_back(TextTable::num(pick(by_threads[t])));
      }
      measured.add_row(std::move(cells));
    };
    measured.add_separator();
    row("Min", [](const Summary& s) { return s.min; });
    row("Average", [](const Summary& s) { return s.mean; });
    row("Max", [](const Summary& s) { return s.max; });
  }
  std::cout << measured.to_string();
  std::cout << "(* = more threads than physical cores: oversubscribed, "
               "expect no further gain)\n\n";

  TextTable paper("Paper Table IV (24-core Cray XE6 node) [msec]");
  paper.set_header({"Image type", "", "2", "6", "16", "24"});
  const char* last_family = "";
  for (const auto& row : kPaperTable4) {
    if (std::string_view(row.family) != last_family) {
      paper.add_separator();
      last_family = row.family;
    }
    paper.add_row({row.family, row.stat, TextTable::num(row.t2),
                   TextTable::num(row.t6), TextTable::num(row.t16),
                   TextTable::num(row.t24)});
  }
  std::cout << paper.to_string();
  return 0;
}
