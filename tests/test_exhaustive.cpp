// Exhaustive small-image verification: every possible binary image of a
// given shape is labeled by every algorithm and compared with the oracle.
// 4x4 = 65536 images catches every local mask configuration, including all
// decision-tree branches and two-line-scan cases; the rectangular shapes
// catch row/column boundary handling.
//
// The fused-stats algorithms additionally run a stats request on every
// image (all on one warm LabelScratch, so the scratch-reuse path is swept
// too), cross-checked against the post-pass compute_stats oracle — an
// exhaustive proof that the accumulate-during-scan hooks fire on every
// branch of the two-line mask (including forced multi-chunk PAREMSP and
// degenerate 1-pixel tiled grids, where all merging happens at seams).
#include <gtest/gtest.h>

#include <string>

#include "analysis/component_stats.hpp"
#include "analysis/equivalence.hpp"
#include "core/paremsp_all.hpp"
#include "fixtures.hpp"

namespace paremsp {
namespace {

BinaryImage image_from_bits(Coord rows, Coord cols, std::uint32_t bits) {
  BinaryImage img(rows, cols);
  for (Coord r = 0; r < rows; ++r) {
    for (Coord c = 0; c < cols; ++c) {
      img(r, c) = static_cast<std::uint8_t>(
          (bits >> (r * cols + c)) & 1U);
    }
  }
  return img;
}

/// rows, cols, stride: stride 1 enumerates the full space; a coprime
/// stride > 1 samples it evenly (used for the shapes whose mask coverage
/// the complete 4x4 sweep already provides).
struct Shape {
  Coord rows;
  Coord cols;
  std::uint32_t stride;
};

class ExhaustiveShape : public ::testing::TestWithParam<Shape> {};

TEST_P(ExhaustiveShape, AllAlgorithmsMatchOracleOnEveryImage) {
  const auto [rows, cols, stride] = GetParam();
  const int nbits = static_cast<int>(rows * cols);
  ASSERT_LE(nbits, 16) << "exhaustive space too large";

  const FloodFillLabeler oracle;
  std::vector<std::unique_ptr<Labeler>> labelers;
  for (const auto& info : algorithm_catalog()) {
    if (info.id == Algorithm::FloodFill) continue;
    labelers.push_back(make_labeler(info.id));
  }
  // Also force multi-chunk PAREMSP (default may pick 1 thread on 1-core).
  labelers.push_back(std::make_unique<ParemspLabeler>(ParemspConfig{2}));
  labelers.push_back(std::make_unique<ParemspLabeler>(ParemspConfig{3}));

  // Fused-stats configurations: exhaustively cross-checked against the
  // post-pass oracle. Degenerate tile grids route every adjacency through
  // seam merges, so the accumulator fold sees maximal fragmentation.
  std::vector<std::unique_ptr<Labeler>> fused;
  fused.push_back(std::make_unique<AremspLabeler>());
  fused.push_back(std::make_unique<ParemspLabeler>(ParemspConfig{2}));
  fused.push_back(std::make_unique<ParemspLabeler>(ParemspConfig{3}));
  // Run-based configurations: degenerate tile grids chop every run down
  // to tile width, so the boundary-run seam merges and the run renumber
  // see maximal fragmentation on every mask configuration.
  fused.push_back(std::make_unique<AremspRleLabeler>());
  fused.push_back(
      std::make_unique<ParemspRleLabeler>(RleConfig{.threads = 2}));
  fused.push_back(
      std::make_unique<ParemspRleLabeler>(RleConfig{.threads = 3}));
  fused.push_back(std::make_unique<TiledParemspLabeler>(
      RleConfig{.tile_rows = 1, .tile_cols = 1}));
  fused.push_back(std::make_unique<TiledParemspLabeler>(
      RleConfig{.tile_rows = 2, .tile_cols = 3}));

  LabelScratch scratch;  // shared by every stats request below
  const std::uint64_t total = 1ULL << nbits;
  for (std::uint64_t bits = 0; bits < total; bits += stride) {
    const BinaryImage img =
        image_from_bits(rows, cols, static_cast<std::uint32_t>(bits));
    const auto expected = oracle.label(img);
    for (const auto& labeler : labelers) {
      const auto got = labeler->label(img);
      if (got.num_components != expected.num_components ||
          !analysis::equivalent_labelings(got.labels, expected.labels)) {
        FAIL() << labeler->name() << " wrong on " << rows << "x" << cols
               << " bits=" << bits << "\n"
               << to_ascii(img);
      }
    }
    const LabelRequest stats_request = testing::stats_request(img);
    for (const auto& labeler : fused) {
      LabelResponse ws = labeler->run(stats_request, scratch);
      if (ws.num_components != expected.num_components ||
          !analysis::equivalent_labelings(ws.labels, expected.labels)) {
        FAIL() << labeler->name() << " stats request mislabeled "
               << rows << "x" << cols << " bits=" << bits << "\n"
               << to_ascii(img);
      }
      const auto oracle_stats =
          analysis::compute_stats(ws.labels, ws.num_components);
      // Cheap pre-check keeps the 65536-image hot loop free of failure
      // message construction; the shared helper reports on mismatch.
      if (ws.stats->components != oracle_stats.components) {
        testing::expect_stats_identical(
            *ws.stats, oracle_stats,
            std::string(labeler->name()) + " " + std::to_string(rows) + "x" +
                std::to_string(cols) + " bits=" + std::to_string(bits) +
                "\n" + to_ascii(img));
      }
      scratch.recycle_plane(std::move(ws.labels));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ExhaustiveShape,
    ::testing::Values(Shape{4, 4, 1},       // complete: richest mask space
                      Shape{3, 5, 5},       // sampled rectangular shapes
                      Shape{5, 3, 5},
                      Shape{2, 8, 9},
                      Shape{8, 2, 9},
                      Shape{1, 16, 11},     // single row/col: run handling
                      Shape{16, 1, 11}),
    [](const auto& pinfo) {
      return std::to_string(pinfo.param.rows) + "x" +
             std::to_string(pinfo.param.cols) +
             (pinfo.param.stride == 1 ? "_full" : "_sampled");
    });

}  // namespace
}  // namespace paremsp
