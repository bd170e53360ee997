// Randomized differential testing: every registry algorithm against the
// flood-fill oracle over a generator matrix sweeping density (0.05–0.95),
// degenerate shapes (1xN, Nx1, 1x1, empty, all-foreground/background) and
// both connectivities where supported. Labelings are compared after
// canonical (raster-first-appearance) renumbering, so algorithms with
// different-but-valid numbering schemes still diff exactly.
//
// Every assertion carries the PRNG seed and an ASCII dump of the offending
// image, so any failure is replayable as a one-liner:
//   gen::uniform_noise(rows, cols, density, seed)
// and the randomized sweeps derive their seeds from PAREMSP_TEST_SEED
// (common/env.hpp), so a CI failure replays verbatim:
//   PAREMSP_TEST_SEED=<seed> ./paremsp_tests --gtest_filter='Differential.*'
//
// Besides raw labels, every algorithm's stats request (outputs.stats) is
// cross-checked against the post-pass compute_stats oracle on the same
// plane: the fused accumulate-during-scan paths must be value-identical
// (exact integers and the centroids derived from them) on every cell of
// the matrix. Stats requests run on one LabelScratch shared across the
// algorithms of a sweep cell, so they exercise the warm-scratch path.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/component_stats.hpp"
#include "analysis/equivalence.hpp"
#include "analysis/validation.hpp"
#include "common/contracts.hpp"
#include "common/env.hpp"
#include "core/label_scratch.hpp"
#include "core/rle_labelers.hpp"
#include "core/registry.hpp"
#include "fixtures.hpp"
#include "image/ascii.hpp"
#include "image/generators.hpp"

namespace paremsp {
namespace {

using testing::expect_stats_identical;

/// Base seed for the randomized sweeps, overridable for verbatim replay.
std::uint64_t test_seed(std::uint64_t fallback) {
  return env_uint64("PAREMSP_TEST_SEED", fallback);
}

/// Replay header for a failing case: the exact generator call + the image.
std::string dump_case(const BinaryImage& image, std::uint64_t seed,
                      double density, Connectivity connectivity) {
  std::ostringstream os;
  os << "replay: gen::uniform_noise(" << image.rows() << ", " << image.cols()
     << ", " << density << ", " << seed << "ULL), "
     << to_string(connectivity) << "\n";
  if (image.size() > 0 && image.rows() <= 48 && image.cols() <= 80) {
    os << to_ascii(image);
  } else {
    os << "(image too large to dump: " << image.rows() << "x" << image.cols()
       << ")\n";
  }
  return os.str();
}

/// Diff one algorithm against the oracle on one image. Both labelings are
/// canonically renumbered first; after that they must be equal bit for bit.
/// The stats request draws its buffers from `scratch`.
void diff_against_oracle(const AlgorithmInfo& info, const BinaryImage& image,
                         Connectivity connectivity, const std::string& why,
                         LabelScratch& scratch) {
  LabelerOptions options;
  options.connectivity = connectivity;

  if (!info.supports(connectivity)) {
    // The uniform contract: unsupported combinations throw the registry's
    // PreconditionError from make_labeler — no aborts, no silent wrong
    // answers from a constructed labeler.
    EXPECT_THROW((void)make_labeler(info.id, options), PreconditionError)
        << info.name << " " << why;
    return;
  }

  const auto oracle =
      make_labeler(Algorithm::FloodFill, options)->label(image);
  const auto labeler = make_labeler(info.id, options);
  LabelResponse got = labeler->label(image);
  EXPECT_EQ(got.num_components, oracle.num_components)
      << info.name << " " << why;

  LabelImage canonical_got = got.labels;
  LabelImage canonical_oracle = oracle.labels;
  (void)analysis::canonical_relabel(canonical_got);
  (void)analysis::canonical_relabel(canonical_oracle);
  EXPECT_EQ(canonical_got, canonical_oracle) << info.name << " " << why;

  const auto v = analysis::validate_labeling(image, got.labels,
                                             got.num_components, connectivity);
  EXPECT_TRUE(v.ok) << info.name << " " << why << "\n" << v.error;

  // Fused stats: a stats request must label bit-identically to label()
  // and measure value-identically to the post-pass oracle on that plane.
  LabelResponse ws = labeler->run(testing::stats_request(image), scratch);
  EXPECT_EQ(ws.num_components, got.num_components) << info.name << " " << why;
  EXPECT_EQ(ws.labels, got.labels)
      << info.name << " stats request diverged from label() " << why;
  expect_stats_identical(*ws.stats,
                         analysis::compute_stats(ws.labels, ws.num_components),
                         std::string(info.name) + " " + why);
  scratch.recycle_plane(std::move(ws.labels));
}

/// One full sweep cell: every algorithm x both connectivities on `image`.
void diff_all(const BinaryImage& image, std::uint64_t seed, double density) {
  LabelScratch scratch;  // warm after the first algorithm
  for (const Connectivity connectivity :
       {Connectivity::Eight, Connectivity::Four}) {
    const std::string why = dump_case(image, seed, density, connectivity);
    for (const AlgorithmInfo& info : algorithm_catalog()) {
      if (info.id == Algorithm::FloodFill) continue;  // the oracle itself
      diff_against_oracle(info, image, connectivity, why, scratch);
    }
  }
}

TEST(Differential, DensitySweepAcrossShapes) {
  const std::vector<std::pair<Coord, Coord>> shapes = {
      {1, 1}, {1, 31}, {29, 1}, {2, 2}, {5, 5}, {9, 17}, {16, 16}, {13, 40},
  };
  const double densities[] = {0.05, 0.15, 0.35, 0.5, 0.65, 0.8, 0.95};
  std::uint64_t seed = test_seed(0x5eed);
  for (const auto& [rows, cols] : shapes) {
    for (const double density : densities) {
      ++seed;
      diff_all(gen::uniform_noise(rows, cols, density, seed), seed, density);
    }
  }
}

TEST(Differential, DegenerateImages) {
  diff_all(BinaryImage(), 0, 0.0);          // 0x0
  diff_all(BinaryImage(0, 7), 0, 0.0);      // 0 rows
  diff_all(BinaryImage(7, 0), 0, 0.0);      // 0 cols
  diff_all(BinaryImage(11, 13, 1), 0, 1.0); // all foreground
  diff_all(BinaryImage(11, 13, 0), 0, 0.0); // all background
  diff_all(BinaryImage(1, 1, 1), 0, 1.0);   // single foreground pixel
}

TEST(Differential, StructuredAdversarialPatterns) {
  // Structured generators hit the cases uniform noise rarely produces:
  // corner-only contacts, long dependency chains, seam-hugging snakes.
  diff_all(gen::checkerboard(21, 27, 1), 1, 0.5);
  diff_all(gen::diagonal_stripes(24, 24, 3, 1), 2, 0.33);
  diff_all(gen::concentric_rings(25, 25, 2), 3, 0.5);
  diff_all(gen::spiral(24, 30, 1, 2), 4, 0.33);
  diff_all(gen::maze(23, 23, 99), 5, 0.6);
  diff_all(gen::random_rectangles(26, 26, 9, 2, 8, 42), 6, 0.4);
  diff_all(gen::text_banner("CCL", 2, 1), 7, 0.3);
}

TEST(Differential, RandomizedManySeeds) {
  // Volume sweep at moderate size: many independent seeds at mixed
  // densities. Failures name the exact seed for replay.
  const std::uint64_t base = test_seed(1000);
  for (std::uint64_t seed = base; seed < base + 30; ++seed) {
    const double density =
        0.05 + 0.9 * static_cast<double>(seed % 10) / 9.0;
    diff_all(gen::uniform_noise(20, 24, density, seed), seed, density);
  }
}

TEST(Differential, FusedStatsAcrossDegenerateTileGeometries) {
  // The fused tiled path must stay value-identical to the post-pass
  // oracle for EVERY grid, including 1-pixel tiles where every pixel is
  // its own scan and all adjacencies flow through seam merges — the
  // worst case for accumulator folding.
  const std::vector<std::pair<Coord, Coord>> geometries = {
      {1, 1}, {1, 3}, {3, 1}, {2, 2}, {5, 4}, {4, 16}, {16, 4},
  };
  const std::uint64_t base = test_seed(0x71e5);
  const AlgorithmInfo& info = algorithm_info(Algorithm::ParemspTiled);
  LabelScratch scratch;  // shared by every geometry: warm after the first
  for (std::uint64_t i = 0; i < 6; ++i) {
    const std::uint64_t seed = base + i;
    const double density = 0.15 + 0.7 * static_cast<double>(i) / 5.0;
    const BinaryImage image = gen::uniform_noise(13, 19, density, seed);
    const std::string why = dump_case(image, seed, density,
                                      Connectivity::Eight);
    const LabelRequest request = testing::stats_request(image);
    const LabelResponse reference =
        make_labeler(Algorithm::Aremsp)->run(request);
    for (const auto& [tr, tc] : geometries) {
      const TiledParemspLabeler tiled(
          RleConfig{.tile_rows = tr, .tile_cols = tc});
      LabelResponse ws = tiled.run(request, scratch);
      // Tiled output is bit-identical to AREMSP, so the stats must match
      // the reference's component for component, not only as a multiset.
      const std::string context = std::string(info.name) + " tiles " +
                                  std::to_string(tr) + "x" +
                                  std::to_string(tc) + " " + why;
      EXPECT_EQ(ws.labels, reference.labels) << context;
      expect_stats_identical(*ws.stats, *reference.stats, context);
      expect_stats_identical(
          *ws.stats, analysis::compute_stats(ws.labels, ws.num_components),
          context);
      scratch.recycle_plane(std::move(ws.labels));
    }
  }
}

}  // namespace
}  // namespace paremsp
