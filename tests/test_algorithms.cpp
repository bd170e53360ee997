// The central correctness suite: every labeling algorithm, on every
// hand-drawn fixture and on randomized generator images, must (a) report
// the oracle component count, (b) pass the structural validator, and
// (c) be label-equivalent to the flood-fill oracle.
#include <gtest/gtest.h>

#include <string>

#include "analysis/equivalence.hpp"
#include "analysis/validation.hpp"
#include "core/paremsp_all.hpp"
#include "fixtures.hpp"

namespace paremsp {
namespace {

class EveryAlgorithm : public ::testing::TestWithParam<Algorithm> {
 protected:
  std::unique_ptr<Labeler> labeler() const { return make_labeler(GetParam()); }

  void expect_correct(const BinaryImage& image, const std::string& what) {
    SCOPED_TRACE(what);
    const auto oracle = FloodFillLabeler(Connectivity::Eight).label(image);
    const LabelResponse result = labeler()->label(image);

    EXPECT_EQ(result.num_components, oracle.num_components);
    const auto v = analysis::validate_labeling(image, result.labels,
                                               result.num_components);
    EXPECT_TRUE(v.ok) << v.error;
    EXPECT_TRUE(analysis::equivalent_labelings(result.labels, oracle.labels));
  }
};

TEST_P(EveryAlgorithm, HandlesAllFixtures) {
  for (const auto& fx : testing::fixtures()) {
    expect_correct(fx.image, fx.name);
  }
}

TEST_P(EveryAlgorithm, ReportsFixtureComponentCounts) {
  for (const auto& fx : testing::fixtures()) {
    SCOPED_TRACE(fx.name);
    EXPECT_EQ(labeler()->label(fx.image).num_components, fx.components8);
  }
}

TEST_P(EveryAlgorithm, HandlesRandomNoiseAcrossDensities) {
  for (const double density : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto image = gen::uniform_noise(61, 47, density, seed);
      expect_correct(image, "noise d=" + std::to_string(density) + " s=" +
                                std::to_string(seed));
    }
  }
}

TEST_P(EveryAlgorithm, HandlesDatasetFamilies) {
  expect_correct(gen::texture_like(80, 64, 5), "texture");
  expect_correct(gen::aerial_like(80, 64, 5), "aerial");
  expect_correct(gen::misc_like(80, 64, 5), "misc");
  expect_correct(gen::landcover_like(80, 64, 5), "landcover");
}

TEST_P(EveryAlgorithm, HandlesStructuredAdversaries) {
  expect_correct(gen::checkerboard(32, 33, 1), "checkerboard");
  expect_correct(gen::spiral(63, 64, 2, 3), "spiral");
  expect_correct(gen::maze(41, 31, 7), "maze");
  expect_correct(gen::concentric_rings(40, 44, 3), "rings");
  expect_correct(gen::diagonal_stripes(37, 41, 6, 2), "diag_stripes");
  expect_correct(gen::text_banner("PAREMSP 2014", 2, 3), "text");
}

TEST_P(EveryAlgorithm, HandlesDegenerateShapes) {
  expect_correct(BinaryImage(), "empty");
  expect_correct(BinaryImage(1, 1, 0), "1x1 bg");
  expect_correct(BinaryImage(1, 1, 1), "1x1 fg");
  expect_correct(BinaryImage(64, 64, 0), "all background");
  expect_correct(BinaryImage(64, 64, 1), "all foreground");
  expect_correct(gen::uniform_noise(1, 100, 0.5, 2), "1 row");
  expect_correct(gen::uniform_noise(100, 1, 0.5, 2), "1 col");
  expect_correct(gen::uniform_noise(2, 2, 0.5, 3), "2x2");
  expect_correct(gen::uniform_noise(3, 200, 0.4, 4), "wide");
  expect_correct(gen::uniform_noise(200, 3, 0.4, 4), "tall");
}

TEST_P(EveryAlgorithm, OddRowCountsExerciseTrailingRow) {
  for (const Coord rows : {3, 5, 7, 9, 33}) {
    expect_correct(gen::uniform_noise(rows, 24, 0.5,
                                      static_cast<std::uint64_t>(rows)),
                   "odd rows " + std::to_string(rows));
  }
}

TEST_P(EveryAlgorithm, LabelsAreRasterMinimalPerComponent) {
  // All two-pass algorithms number components consecutively; canonical
  // relabeling must be a no-op up to equivalence.
  const auto image = gen::misc_like(48, 48, 11);
  LabelResponse result = labeler()->label(image);
  LabelImage canonical = result.labels;
  const Label n = analysis::canonical_relabel(canonical);
  EXPECT_EQ(n, result.num_components);
  EXPECT_TRUE(analysis::equivalent_labelings(canonical, result.labels));
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, EveryAlgorithm,
    ::testing::Values(Algorithm::FloodFill, Algorithm::Arun,
                      Algorithm::Ccllrpc, Algorithm::Cclremsp,
                      Algorithm::Aremsp, Algorithm::Paremsp,
                      Algorithm::ParemspTiled, Algorithm::AremspRle,
                      Algorithm::ParemspRle),
    [](const auto& pinfo) {
      return std::string(algorithm_info(pinfo.param).name);
    });

// --- 4-connectivity (extension) ----------------------------------------------

class FourConnAlgorithm : public ::testing::TestWithParam<Algorithm> {};

TEST_P(FourConnAlgorithm, MatchesFourConnOracle) {
  const LabelerOptions opts{.connectivity = Connectivity::Four};
  const auto labeler = make_labeler(GetParam(), opts);
  const FloodFillLabeler oracle(Connectivity::Four);

  for (const auto& fx : testing::fixtures()) {
    SCOPED_TRACE(fx.name);
    const auto expected = oracle.label(fx.image);
    const auto result = labeler->label(fx.image);
    EXPECT_EQ(result.num_components, fx.components4);
    const auto v = analysis::validate_labeling(
        fx.image, result.labels, result.num_components, Connectivity::Four);
    EXPECT_TRUE(v.ok) << v.error;
    EXPECT_TRUE(analysis::equivalent_labelings(result.labels,
                                               expected.labels));
  }
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto image = gen::uniform_noise(53, 37, 0.5, seed);
    const auto expected = oracle.label(image);
    const auto result = labeler->label(image);
    EXPECT_EQ(result.num_components, expected.num_components);
    EXPECT_TRUE(
        analysis::equivalent_labelings(result.labels, expected.labels));
  }
}

INSTANTIATE_TEST_SUITE_P(
    FourConnCapable, FourConnAlgorithm,
    ::testing::Values(Algorithm::FloodFill, Algorithm::Ccllrpc,
                      Algorithm::Cclremsp, Algorithm::ParemspTiled,
                      Algorithm::AremspRle, Algorithm::ParemspRle),
    [](const auto& pinfo) {
      return std::string(algorithm_info(pinfo.param).name);
    });

TEST(FourConnRejection, EightOnlyAlgorithmsRefuse) {
  const LabelerOptions opts{.connectivity = Connectivity::Four};
  for (const Algorithm a :
       {Algorithm::Arun, Algorithm::Aremsp, Algorithm::Paremsp}) {
    EXPECT_THROW((void)make_labeler(a, opts), PreconditionError)
        << algorithm_info(a).name;
  }
}

// --- Cross-algorithm exact agreement -------------------------------------------

TEST(CrossAlgorithm, TwoLineFamilyIsBitIdentical) {
  // AREMSP, ARUN and PAREMSP share the scan order, so their final labels
  // (not just partitions) must agree exactly.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto image = gen::landcover_like(57, 49, seed);
    const auto a = AremspLabeler().label(image);
    const auto b = ArunLabeler().label(image);
    const auto c = ParemspLabeler().label(image);
    EXPECT_EQ(a.labels, b.labels) << "seed " << seed;
    EXPECT_EQ(a.labels, c.labels) << "seed " << seed;
  }
}

TEST(CrossAlgorithm, OneLineFamilyIsBitIdentical) {
  // CCLREMSP and CCLLRPC differ only in union-find; same numbering.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto image = gen::texture_like(48, 52, seed);
    const auto a = CclremspLabeler().label(image);
    const auto b = CcllrpcLabeler().label(image);
    EXPECT_EQ(a.labels, b.labels) << "seed " << seed;
  }
}

TEST(CrossAlgorithm, TimingsArePopulated) {
  const auto image = gen::landcover_like(128, 128, 3);
  for (const AlgorithmInfo& info : algorithm_catalog()) {
    const auto result = make_labeler(info.id)->label(image);
    EXPECT_GE(result.timings.total_ms, 0.0);
    EXPECT_GE(result.timings.scan_ms, 0.0);
    EXPECT_LE(result.timings.local_ms(), result.timings.local_plus_merge_ms());
    // total covers at least the measured phases
    EXPECT_GE(result.timings.total_ms,
              result.timings.scan_ms + result.timings.merge_ms);
  }
}

}  // namespace
}  // namespace paremsp
