// Object counting — the classic CCL application (the paper's §I motivates
// CCL with automated inspection and medical image analysis).
//
// Synthesizes a microscopy-like slide of elliptical "cells" plus noise,
// labels it, then filters components by area to separate cells from debris
// and reports a size histogram — the exact pipeline a cell counter runs
// after segmentation.
//
//   $ ./object_counting --cells 60 --size 512 --noise 0.002
#include <algorithm>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/paremsp_all.hpp"

int main(int argc, char** argv) {
  using namespace paremsp;

  CliParser cli("object_counting: count cell-like blobs with PAREMSP");
  cli.add_option("size", "512", "slide side length [px]");
  cli.add_option("cells", "60", "number of cells to synthesize");
  cli.add_option("min-radius", "4", "min cell radius [px]");
  cli.add_option("max-radius", "14", "max cell radius [px]");
  cli.add_option("noise", "0.002", "debris (salt noise) density");
  cli.add_option("seed", "7", "random seed");
  cli.add_flag("ascii", "print a downsampled view of the slide");
  if (!cli.parse(argc, argv)) return 0;

  const Coord side = cli.get_int("size");
  const Coord rmin = cli.get_int("min-radius");
  const Coord rmax = cli.get_int("max-radius");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  // Synthesize the slide: cells + debris.
  BinaryImage slide = gen::random_ellipses(side, side, cli.get_int("cells"),
                                           rmin, rmax, seed);
  const BinaryImage debris =
      gen::uniform_noise(side, side, cli.get_double("noise"), seed ^ 0xD0D0);
  for (std::int64_t i = 0; i < slide.size(); ++i) {
    slide.pixels()[static_cast<std::size_t>(i)] |=
        debris.pixels()[static_cast<std::size_t>(i)];
  }

  // Label and measure in one fused pass: PAREMSP accumulates the
  // per-component features during the labeling scan itself, so the slide
  // is never re-read for analysis (DESIGN.md §6).
  const auto labeler = make_labeler(Algorithm::Paremsp);
  LabelRequest request;
  request.input = slide;
  request.outputs.stats = true;
  const LabelResponse result = labeler->run(request);
  const analysis::ComponentStats& stats = *result.stats;

  // A genuine cell is at least a disk of the minimum radius; debris is
  // single pixels and tiny specks.
  const auto min_cell_area =
      static_cast<std::int64_t>(3.14159 * rmin * rmin * 0.5);
  std::int64_t cells = 0;
  std::int64_t debris_count = 0;
  for (const auto& c : stats.components) {
    (c.area >= min_cell_area ? cells : debris_count) += 1;
  }

  std::cout << "slide: " << side << "x" << side << " px, "
            << result.num_components << " raw components\n"
            << "cells (area >= " << min_cell_area << "): " << cells << '\n'
            << "debris: " << debris_count << '\n'
            << "labeling took " << TextTable::num(result.timings.total_ms)
            << " ms with " << labeler->name() << "\n\n";

  TextTable hist("component size histogram (power-of-two bins)");
  hist.set_header({"area bin [px]", "count"});
  const auto bins = analysis::area_histogram(stats);
  for (std::size_t b = 0; b < bins.size(); ++b) {
    if (bins[b] == 0) continue;
    hist.add_row({"[" + std::to_string(1LL << b) + ", " +
                      std::to_string(1LL << (b + 1)) + ")",
                  std::to_string(bins[b])});
  }
  std::cout << hist.to_string();

  if (cli.get_flag("ascii")) {
    // Downsample by max-pooling for terminal display.
    const Coord step = std::max<Coord>(side / 64, 1);
    BinaryImage view(side / step, side / step);
    for (Coord r = 0; r < view.rows(); ++r) {
      for (Coord c = 0; c < view.cols(); ++c) {
        std::uint8_t any = 0;
        for (Coord dr = 0; dr < step; ++dr) {
          for (Coord dc = 0; dc < step; ++dc) {
            any |= slide.at_or(r * step + dr, c * step + dc, 0);
          }
        }
        view(r, c) = any;
      }
    }
    std::cout << '\n' << to_ascii(view, 'o');
  }
  return 0;
}
