// End-to-end smoke test: every algorithm labels a realistic image and the
// result validates. Deeper per-module suites live in the other test files.
#include <gtest/gtest.h>

#include "analysis/validation.hpp"
#include "core/paremsp_all.hpp"
#include "fixtures.hpp"

namespace paremsp {
namespace {

TEST(Smoke, AllAlgorithmsLabelLandcover) {
  const BinaryImage image = gen::landcover_like(64, 96, /*seed=*/42);
  const auto oracle = FloodFillLabeler().label(image);

  for (const AlgorithmInfo& info : algorithm_catalog()) {
    SCOPED_TRACE(std::string(info.name));
    const auto labeler = make_labeler(info.id);
    const LabelResponse result = labeler->label(image);
    EXPECT_EQ(result.num_components, oracle.num_components);
    const auto validation = analysis::validate_labeling(
        image, result.labels, result.num_components);
    EXPECT_TRUE(validation.ok) << validation.error;
    EXPECT_TRUE(analysis::equivalent_labelings(result.labels, oracle.labels));
  }
}

TEST(Smoke, FixtureCountsAreConsistent) {
  for (const auto& fx : testing::fixtures()) {
    SCOPED_TRACE(fx.name);
    const auto res8 =
        FloodFillLabeler(Connectivity::Eight).label(fx.image);
    const auto res4 = FloodFillLabeler(Connectivity::Four).label(fx.image);
    EXPECT_EQ(res8.num_components, fx.components8);
    EXPECT_EQ(res4.num_components, fx.components4);
  }
}

}  // namespace
}  // namespace paremsp
