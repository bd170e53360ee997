// Quickstart: generate a small image, label it with the paper's parallel
// algorithm (PAREMSP) through the unified request API, and print the
// result.
//
//   $ ./quickstart
//   $ ./quickstart --rows 16 --cols 40 --density 0.4 --seed 7 --threads 4
#include <iostream>

#include "common/cli.hpp"
#include "core/paremsp_all.hpp"

int main(int argc, char** argv) {
  using namespace paremsp;

  CliParser cli("quickstart: label a random image with PAREMSP");
  cli.add_option("rows", "12", "image rows");
  cli.add_option("cols", "48", "image cols");
  cli.add_option("density", "0.45", "foreground density in [0,1]");
  cli.add_option("seed", "2014", "random seed");
  cli.add_option("threads", "0", "worker threads (0 = all hardware threads)");
  if (!cli.parse(argc, argv)) return 0;

  // 1. Make (or load — see image/pnm_io.hpp) a binary image.
  const BinaryImage image =
      gen::uniform_noise(cli.get_int("rows"), cli.get_int("cols"),
                         cli.get_double("density"),
                         static_cast<std::uint64_t>(cli.get_int("seed")));

  // 2. Build one request: the input is a zero-copy view (a whole raster
  //    here; an ROI subview or a pointer+pitch window of your own buffer
  //    works the same), and the outputs are selected up front — stats are
  //    measured inside the labeling scan itself, no second pass.
  const auto labeler = make_labeler(
      Algorithm::Paremsp, LabelerOptions{.threads = cli.get_int("threads")});
  LabelRequest request;
  request.input = image;
  request.outputs.stats = true;
  const LabelResponse response = labeler->run(request);

  // 3. Use the labels and the fused per-component stats.
  std::cout << "input (" << image.rows() << "x" << image.cols() << "):\n"
            << to_ascii(image) << '\n'
            << "components: " << response.num_components << '\n'
            << to_ascii(response.labels) << '\n';

  const analysis::ComponentStats& stats = *response.stats;
  std::cout << "largest component: " << stats.largest_area() << " px, mean "
            << stats.mean_area() << " px\n"
            << "phases [ms]: scan=" << response.timings.scan_ms
            << " merge=" << response.timings.merge_ms
            << " flatten=" << response.timings.flatten_ms
            << " relabel=" << response.timings.relabel_ms << '\n';
  return 0;
}
