// The paper's preprocessing pipeline (Figure 3): color image -> grayscale
// -> binary via im2bw(level=0.5) -> connected component labeling.
//
// Writes the intermediate images as PPM/PGM/PBM next to the binary so you
// can open them in any viewer, then labels the result, reproducing the
// MATLAB step the paper applies to every dataset image. Also demonstrates
// the Otsu extension and the grayscale (multi-level) labeling extension.
//
//   $ ./threshold_pipeline --size 256 --outdir /tmp/paremsp_fig3
#include <filesystem>
#include <iostream>

#include "common/cli.hpp"
#include "core/paremsp_all.hpp"

int main(int argc, char** argv) {
  using namespace paremsp;
  namespace fs = std::filesystem;

  CliParser cli("threshold_pipeline: Figure 3 color->binary->CCL pipeline");
  cli.add_option("size", "256", "test image side length");
  cli.add_option("level", "0.5", "im2bw threshold level (paper: 0.5)");
  cli.add_option("seed", "3", "random seed");
  cli.add_option("outdir", "", "directory for PPM/PGM/PBM dumps (optional)");
  if (!cli.parse(argc, argv)) return 0;

  const Coord side = cli.get_int("size");
  const double level = cli.get_double("level");

  // Figure 3a: a color image.
  const RgbImage color =
      gen::color_test_card(side, side,
                           static_cast<std::uint64_t>(cli.get_int("seed")));
  // rgb2gray (Rec.601 luma, like MATLAB).
  const GrayImage gray = rgb_to_gray(color);
  // Figure 3b: im2bw at the paper's level 0.5.
  const BinaryImage binary = im2bw(gray, level);

  const auto labeler = make_labeler(Algorithm::Aremsp);
  const LabelResponse result = labeler->label(binary);

  std::int64_t white = 0;
  for (const auto px : binary.pixels()) white += px;
  std::cout << "color " << side << "x" << side << " -> gray -> im2bw("
            << level << ")\n"
            << "white pixels: " << white << " ("
            << 100.0 * static_cast<double>(white) /
                   static_cast<double>(binary.size())
            << "%)\n"
            << "components at level " << level << ": "
            << result.num_components << '\n';

  // Extension 1: data-driven threshold via Otsu.
  const double otsu = otsu_level(gray);
  const BinaryImage otsu_bw = im2bw(gray, otsu);
  std::cout << "otsu level: " << otsu << " -> "
            << labeler->label(otsu_bw).num_components << " components\n";

  // Extension 2: grayscale (multi-level) CCL, no binarization at all.
  GrayImage quantized(gray.rows(), gray.cols());
  for (std::int64_t i = 0; i < gray.size(); ++i) {
    quantized.pixels()[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(gray.pixels()[static_cast<std::size_t>(i)] /
                                  32);  // 8 levels
  }
  const auto multilevel = label_grayscale(quantized);
  std::cout << "multi-level CCL on 8 gray levels: "
            << multilevel.num_components << " regions\n";

  const std::string outdir = cli.get("outdir");
  if (!outdir.empty()) {
    fs::create_directories(outdir);
    write_ppm(color, fs::path(outdir) / "fig3_color.ppm");
    write_pgm(gray, fs::path(outdir) / "fig3_gray.pgm");
    write_pbm(binary, fs::path(outdir) / "fig3_binary.pbm");
    write_pbm(otsu_bw, fs::path(outdir) / "fig3_binary_otsu.pbm");
    std::cout << "wrote fig3_color.ppm, fig3_gray.pgm, fig3_binary.pbm, "
                 "fig3_binary_otsu.pbm to "
              << outdir << '\n';
  }
  return 0;
}
