// Tests for the chunked parallel multi-pass baseline (after Niknam et al.,
// paper reference [42]).
#include <gtest/gtest.h>

#include "analysis/equivalence.hpp"
#include "analysis/validation.hpp"
#include "baselines/flood_fill.hpp"
#include "baselines/parallel_suzuki.hpp"
#include "fixtures.hpp"
#include "image/generators.hpp"

namespace paremsp {
namespace {

class PSuzukiThreads : public ::testing::TestWithParam<int> {};

TEST_P(PSuzukiThreads, MatchesOracleOnFixtures) {
  const ParallelSuzukiLabeler labeler(Connectivity::Eight, GetParam());
  for (const auto& fx : testing::fixtures()) {
    SCOPED_TRACE(fx.name);
    const auto got = labeler.label(fx.image);
    EXPECT_EQ(got.num_components, fx.components8);
    const auto v = analysis::validate_labeling(fx.image, got.labels,
                                               got.num_components);
    EXPECT_TRUE(v.ok) << v.error;
  }
}

TEST_P(PSuzukiThreads, MatchesOracleOnGeneratedImages) {
  const ParallelSuzukiLabeler labeler(Connectivity::Eight, GetParam());
  const FloodFillLabeler oracle;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const auto image = gen::landcover_like(61, 53, seed);
    const auto expected = oracle.label(image);
    const auto got = labeler.label(image);
    EXPECT_EQ(got.num_components, expected.num_components);
    EXPECT_TRUE(analysis::equivalent_labelings(got.labels, expected.labels));
  }
  // Spiral: worst case for multi-pass (many global iterations).
  const auto spiral = gen::spiral(49, 49, 2, 3);
  const auto got = labeler.label(spiral);
  EXPECT_EQ(got.num_components, 1);
  EXPECT_GE(labeler.last_iteration_count(), 2);
}

TEST_P(PSuzukiThreads, FourConnectivity) {
  const ParallelSuzukiLabeler labeler(Connectivity::Four, GetParam());
  const FloodFillLabeler oracle(Connectivity::Four);
  for (const auto& fx : testing::fixtures()) {
    SCOPED_TRACE(fx.name);
    const auto got = labeler.label(fx.image);
    EXPECT_EQ(got.num_components, fx.components4);
    EXPECT_TRUE(analysis::equivalent_labelings(
        got.labels, oracle.label(fx.image).labels));
  }
}

TEST_P(PSuzukiThreads, LabelsAreRasterCanonical) {
  // Converged labels are flat-index minima, so consecutive renumbering in
  // increasing order equals flood fill's raster-first numbering exactly.
  const ParallelSuzukiLabeler labeler(Connectivity::Eight, GetParam());
  const auto image = gen::misc_like(47, 59, 9);
  const auto got = labeler.label(image);
  const auto oracle = FloodFillLabeler().label(image);
  EXPECT_EQ(got.labels, oracle.labels);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, PSuzukiThreads,
                         ::testing::Values(1, 2, 4, 7),
                         [](const auto& pinfo) {
                           return "t" + std::to_string(pinfo.param);
                         });

TEST(PSuzuki, IterationCountGrowsWithSnakyness) {
  const ParallelSuzukiLabeler labeler(Connectivity::Eight, 2);
  (void)labeler.label(gen::uniform_noise(64, 64, 0.3, 1));
  const int noise_iters = labeler.last_iteration_count();
  (void)labeler.label(gen::spiral(64, 64, 1, 2));
  const int spiral_iters = labeler.last_iteration_count();
  // The spiral needs more global sweeps than speckle noise — the
  // multi-pass weakness PAREMSP's two-pass design avoids.
  EXPECT_GT(spiral_iters, noise_iters);
}

TEST(PSuzuki, DegenerateInputs) {
  const ParallelSuzukiLabeler labeler;
  EXPECT_EQ(labeler.label(BinaryImage()).num_components, 0);
  EXPECT_EQ(labeler.label(BinaryImage(3, 3, 0)).num_components, 0);
  EXPECT_EQ(labeler.label(BinaryImage(3, 3, 1)).num_components, 1);
  EXPECT_EQ(labeler.label(BinaryImage(1, 1, 1)).num_components, 1);
  EXPECT_THROW(ParallelSuzukiLabeler(Connectivity::Eight, -1),
               PreconditionError);
}

}  // namespace
}  // namespace paremsp
