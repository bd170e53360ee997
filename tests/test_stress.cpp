// Randomized stress sweep: a broad matrix of generator x size x density x
// algorithm, every result validated structurally and against the oracle.
// This is the suite most likely to catch rare mask/boundary interactions
// that the targeted tests missed; seeds are fixed so failures reproduce.
#include <gtest/gtest.h>

#include <string>

#include "analysis/equivalence.hpp"
#include "analysis/validation.hpp"
#include "common/prng.hpp"
#include "core/paremsp_all.hpp"

namespace paremsp {
namespace {

BinaryImage random_workload(Xoshiro256& rng) {
  const Coord rows = static_cast<Coord>(rng.next_in(1, 96));
  const Coord cols = static_cast<Coord>(rng.next_in(1, 96));
  const std::uint64_t seed = rng();
  switch (rng.next_below(7)) {
    case 0:
      return gen::uniform_noise(rows, cols, rng.next_double(), seed);
    case 1: return gen::landcover_like(rows, cols, seed, 2);
    case 2: return gen::texture_like(rows, cols, seed);
    case 3: return gen::misc_like(rows, cols, seed);
    case 4:
      return gen::random_rectangles(rows, cols, 12, 1,
                                    std::max<Coord>(rows / 3, 1), seed);
    case 5: return gen::checkerboard(rows, cols, 1);
    default: {
      const Coord period = static_cast<Coord>(rng.next_in(2, 9));
      const Coord thickness = static_cast<Coord>(
          rng.next_in(1, std::min<Coord>(period, 3)));
      return gen::diagonal_stripes(rows, cols, period, thickness);
    }
  }
}

TEST(Stress, EveryAlgorithmOnRandomWorkloadMatrix) {
  Xoshiro256 rng(0xABCDEF);
  const FloodFillLabeler oracle;
  std::vector<std::unique_ptr<Labeler>> labelers;
  for (const auto& info : algorithm_catalog()) {
    if (info.id == Algorithm::FloodFill) continue;
    labelers.push_back(make_labeler(info.id));
  }

  constexpr int kRounds = 60;
  for (int round = 0; round < kRounds; ++round) {
    const BinaryImage image = random_workload(rng);
    SCOPED_TRACE("round " + std::to_string(round) + " " +
                 std::to_string(image.rows()) + "x" +
                 std::to_string(image.cols()));
    const auto expected = oracle.label(image);
    for (const auto& labeler : labelers) {
      const auto got = labeler->label(image);
      ASSERT_EQ(got.num_components, expected.num_components)
          << labeler->name();
      ASSERT_TRUE(analysis::equivalent_labelings(got.labels,
                                                 expected.labels))
          << labeler->name();
    }
  }
}

TEST(Stress, ParemspRandomThreadAndConfigMatrix) {
  Xoshiro256 rng(0x5EED);
  const AremspLabeler sequential;
  constexpr int kRounds = 40;
  for (int round = 0; round < kRounds; ++round) {
    const BinaryImage image = random_workload(rng);
    const auto expected = sequential.label(image);

    const int threads = static_cast<int>(rng.next_in(1, 16));
    SCOPED_TRACE("round " + std::to_string(round) + " threads=" +
                 std::to_string(threads));

    const ParemspLabeler par(ParemspConfig{threads});
    const auto got = par.label(image);
    ASSERT_EQ(got.labels, expected.labels);  // bit-identical, always
  }
}

TEST(Stress, TiledParemspRandomGridMatrix) {
  Xoshiro256 rng(0x71ED);
  const AremspLabeler sequential;
  constexpr int kRounds = 40;
  for (int round = 0; round < kRounds; ++round) {
    const BinaryImage image = random_workload(rng);
    const auto expected = sequential.label(image);

    const RleConfig config{
        .threads = static_cast<int>(rng.next_in(1, 8)),
        .tile_rows = static_cast<Coord>(rng.next_in(2, 48)),
        .tile_cols = static_cast<Coord>(rng.next_in(2, 48))};
    SCOPED_TRACE("round " + std::to_string(round) + " tile=" +
                 std::to_string(config.tile_rows) + "x" +
                 std::to_string(config.tile_cols));

    const TiledParemspLabeler par(config);
    const auto got = par.label(image);
    ASSERT_EQ(got.num_components, expected.num_components);
    ASSERT_TRUE(
        analysis::equivalent_labelings(got.labels, expected.labels));
  }
}

TEST(Stress, GrayscaleRandomMatrix) {
  Xoshiro256 rng(0x6EA7);
  for (int round = 0; round < 20; ++round) {
    const Coord rows = static_cast<Coord>(rng.next_in(1, 64));
    const Coord cols = static_cast<Coord>(rng.next_in(1, 64));
    const int levels = static_cast<int>(rng.next_in(2, 6));
    GrayImage img(rows, cols);
    for (auto& px : img.pixels()) {
      px = static_cast<std::uint8_t>(rng.next_below(
          static_cast<std::uint64_t>(levels)));
    }
    const auto res = label_grayscale(img);
    SCOPED_TRACE("round " + std::to_string(round));
    // Component count equals the sum of per-level flood-fill counts.
    Label expected = 0;
    for (int v = 0; v < levels; ++v) {
      BinaryImage mask(rows, cols);
      for (std::int64_t i = 0; i < img.size(); ++i) {
        mask.pixels()[static_cast<std::size_t>(i)] =
            img.pixels()[static_cast<std::size_t>(i)] == v
                ? std::uint8_t{1}
                : std::uint8_t{0};
      }
      expected += FloodFillLabeler().label(mask).num_components;
    }
    ASSERT_EQ(res.num_components, expected);
  }
}

}  // namespace
}  // namespace paremsp
