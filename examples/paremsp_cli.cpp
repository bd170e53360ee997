// paremsp_cli — label any PBM image (or a generated one) from the command
// line with any algorithm in the library.
//
//   $ ./paremsp_cli --input scan.pbm --algorithm paremsp --threads 8 \
//                   --output labels.pgm --stats
//   $ ./paremsp_cli --generate landcover --size 1024 --algorithm aremsp
//
// Outputs: component count + timings on stdout; optionally the label plane
// as a PGM (labels hashed onto 1..255 for viewing, 0 stays black) and a
// per-component CSV.
#include <fstream>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/paremsp_all.hpp"

namespace {

using namespace paremsp;

BinaryImage generate(const std::string& kind, Coord size,
                     std::uint64_t seed) {
  if (kind == "landcover") return gen::landcover_like(size, size, seed);
  if (kind == "texture") return gen::texture_like(size, size, seed);
  if (kind == "aerial") return gen::aerial_like(size, size, seed);
  if (kind == "misc") return gen::misc_like(size, size, seed);
  if (kind == "noise") return gen::uniform_noise(size, size, 0.5, seed);
  if (kind == "spiral") return gen::spiral(size, size, 2, 3);
  if (kind == "maze") return gen::maze(size | 1, size | 1, seed);
  throw PreconditionError("unknown generator: " + kind +
                          " (try landcover|texture|aerial|misc|noise|"
                          "spiral|maze)");
}

GrayImage visualize(const LabelImage& labels) {
  GrayImage out(labels.rows(), labels.cols());
  for (std::int64_t i = 0; i < labels.size(); ++i) {
    const Label l = labels.pixels()[static_cast<std::size_t>(i)];
    // Hash labels over 1..255 so neighbors get distinct shades.
    out.pixels()[static_cast<std::size_t>(i)] =
        l == 0 ? std::uint8_t{0}
               : static_cast<std::uint8_t>(
                     1 + (static_cast<std::uint64_t>(l) * 2654435761U) % 255);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    CliParser cli(
        "paremsp_cli: connected component labeling from the command line");
    cli.add_option("input", "", "input PBM file (P1/P4)");
    cli.add_option("generate", "landcover",
                   "synthesize input when --input is not given");
    cli.add_option("size", "1024", "generated image side length");
    cli.add_option("seed", "1", "generator seed");
    cli.add_option("algorithm", "paremsp",
                   "any registry name: floodfill|arun|ccllrpc|cclremsp|"
                   "aremsp|paremsp|paremsp2d|aremsp_rle|paremsp_rle");
    cli.add_option("connectivity", "8", "4 or 8");
    cli.add_option("threads", "0", "threads for parallel algorithms");
    cli.add_option("output", "", "write label visualization PGM here");
    cli.add_option("csv", "", "write per-component CSV here");
    cli.add_flag("stats", "print component statistics");
    cli.add_flag("validate", "run the structural validator on the result");
    if (!cli.parse(argc, argv)) return 0;

    const std::string input = cli.get("input");
    const BinaryImage image =
        input.empty()
            ? generate(cli.get("generate"), cli.get_int("size"),
                       static_cast<std::uint64_t>(cli.get_int("seed")))
            : read_pbm(input);

    const int conn = cli.get_int("connectivity");
    PAREMSP_REQUIRE(conn == 4 || conn == 8, "--connectivity must be 4 or 8");
    const LabelerOptions options{
        .connectivity = conn == 8 ? Connectivity::Eight : Connectivity::Four,
        .threads = cli.get_int("threads")};
    const auto labeler =
        make_labeler(algorithm_from_name(cli.get("algorithm")), options);

    const LabelResponse result = labeler->label(image);

    std::cout << "image: " << image.rows() << "x" << image.cols() << " ("
              << (input.empty() ? cli.get("generate") : input) << ")\n"
              << "algorithm: " << labeler->name() << ", " << conn
              << "-connectivity\n"
              << "components: " << result.num_components << '\n'
              << "time [ms]: total=" << TextTable::num(result.timings.total_ms)
              << " scan=" << TextTable::num(result.timings.scan_ms)
              << " merge=" << TextTable::num(result.timings.merge_ms)
              << " flatten=" << TextTable::num(result.timings.flatten_ms, 3)
              << " relabel=" << TextTable::num(result.timings.relabel_ms)
              << '\n';

    if (cli.get_flag("validate")) {
      const auto v = analysis::validate_labeling(
          image, result.labels, result.num_components, options.connectivity);
      std::cout << "validation: " << (v.ok ? "OK" : v.error) << '\n';
      if (!v.ok) return 1;
    }

    if (cli.get_flag("stats") || !cli.get("csv").empty()) {
      const auto stats =
          analysis::compute_stats(result.labels, result.num_components);
      if (cli.get_flag("stats")) {
        std::cout << "foreground: " << stats.total_foreground() << " px, "
                  << "largest component: " << stats.largest_area()
                  << " px, mean: " << TextTable::num(stats.mean_area())
                  << " px\n";
        const auto bins = analysis::area_histogram(stats);
        for (std::size_t b = 0; b < bins.size(); ++b) {
          if (bins[b] != 0) {
            std::cout << "  area [" << (1LL << b) << ", " << (1LL << (b + 1))
                      << "): " << bins[b] << '\n';
          }
        }
      }
      if (const std::string csv = cli.get("csv"); !csv.empty()) {
        std::ofstream out(csv);
        PAREMSP_REQUIRE(out.is_open(), "cannot open " + csv);
        out << "label,area,row_min,col_min,row_max,col_max,centroid_row,"
               "centroid_col\n";
        for (const auto& c : stats.components) {
          out << c.label << ',' << c.area << ',' << c.bbox.row_min << ','
              << c.bbox.col_min << ',' << c.bbox.row_max << ','
              << c.bbox.col_max << ',' << c.centroid_row << ','
              << c.centroid_col << '\n';
        }
        std::cout << "wrote " << csv << '\n';
      }
    }

    if (const std::string out = cli.get("output"); !out.empty()) {
      write_pgm(visualize(result.labels), out);
      std::cout << "wrote " << out << '\n';
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
