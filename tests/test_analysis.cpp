// Tests for the analysis module: component statistics, labeling
// equivalence, canonical relabeling, and the structural validator itself
// (the validator must catch every class of broken labeling, since the rest
// of the suite trusts it).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "analysis/component_stats.hpp"
#include "analysis/equivalence.hpp"
#include "analysis/feature_accumulator.hpp"
#include "analysis/validation.hpp"
#include "baselines/flood_fill.hpp"
#include "core/label_scratch.hpp"
#include "core/registry.hpp"
#include "core/request.hpp"
#include "image/ascii.hpp"
#include "image/generators.hpp"

namespace paremsp::analysis {
namespace {

LabelResponse labeled(const BinaryImage& img) {
  return FloodFillLabeler().label(img);
}

// --- Component stats -----------------------------------------------------------

TEST(ComponentStats, CarriesExactCentroidSums) {
  const BinaryImage img = binary_from_ascii(
      R"(
.#.
###)");
  const auto res = labeled(img);
  ASSERT_EQ(res.num_components, 1);
  const ComponentStats stats = compute_stats(res.labels, res.num_components);
  const ComponentInfo& c = stats.components[0];
  EXPECT_EQ(c.area, 4);
  EXPECT_EQ(c.row_sum, 0 + 1 + 1 + 1);
  EXPECT_EQ(c.col_sum, 1 + 0 + 1 + 2);
  // Centroids must be derived from the sums, bit for bit.
  EXPECT_EQ(c.centroid_row, static_cast<double>(c.row_sum) / 4.0);
  EXPECT_EQ(c.centroid_col, static_cast<double>(c.col_sum) / 4.0);
}

// --- FeatureCell algebra -----------------------------------------------------

TEST(FeatureCell, AccumulatesAndMergesCommutatively) {
  FeatureCell a;
  a.add_pixel(2, 3);
  a.add_pixel(2, 4);
  FeatureCell b;
  b.add_pixel(5, 1);

  FeatureCell ab = a;
  ab.merge(b);
  FeatureCell ba = b;
  ba.merge(a);
  for (const FeatureCell& m : {ab, ba}) {
    EXPECT_EQ(m.area, 3);
    EXPECT_EQ(m.row_min, 2);
    EXPECT_EQ(m.row_max, 5);
    EXPECT_EQ(m.col_min, 1);
    EXPECT_EQ(m.col_max, 4);
    EXPECT_EQ(m.row_sum, 9);
    EXPECT_EQ(m.col_sum, 8);
  }

  // The empty cell is the identity on both sides.
  FeatureCell empty;
  FeatureCell left = a;
  left.merge(empty);
  EXPECT_EQ(left.area, a.area);
  EXPECT_EQ(left.row_sum, a.row_sum);
  FeatureCell right = empty;
  right.merge(a);
  EXPECT_EQ(right.area, a.area);
  EXPECT_EQ(right.col_max, a.col_max);
}

TEST(FeatureCell, FoldAndFinalizeMatchComputeStats) {
  // Three provisional labels resolving to two components: 1,3 -> 1; 2 -> 2.
  std::vector<FeatureCell> cells(4);
  FeatureAccumulator acc(cells);
  acc.fresh(1);
  acc.add(1, 0, 0);
  acc.add(1, 0, 1);
  acc.fresh(2);
  acc.add(2, 4, 4);
  acc.fresh(3);
  acc.add(3, 1, 1);
  const std::vector<Label> final_of = {0, 1, 2, 1};

  std::vector<ComponentInfo> components(2);
  fold_features(cells, final_of, 1, 3, components);
  finalize_components(components);

  EXPECT_EQ(components[0].label, 1);
  EXPECT_EQ(components[0].area, 3);
  EXPECT_EQ(components[0].bbox, (BoundingBox{0, 0, 1, 1}));
  EXPECT_EQ(components[0].row_sum, 1);
  EXPECT_EQ(components[0].col_sum, 2);
  EXPECT_DOUBLE_EQ(components[0].centroid_row, 1.0 / 3.0);
  EXPECT_EQ(components[1].area, 1);
  EXPECT_EQ(components[1].bbox, (BoundingBox{4, 4, 4, 4}));
}

TEST(FeatureCell, FinalizeRejectsEmptyComponent) {
  std::vector<ComponentInfo> components(1);  // claims a pixel-less component
  EXPECT_THROW(finalize_components(components), PreconditionError);
}

TEST(FeatureCells, GarbageFilledScratchMatchesPostPassOracle) {
  // LabelScratch::feature_cells initializes nothing: each fused stats
  // path must write a cell at its new-label event before anything reads
  // it. Fill the cells with a non-zero byte pattern before every request
  // and hold each result to the post-pass compute_stats oracle over its
  // own labels. 384x384 images fan the parallel labelers out over 4
  // chunks/bands/tiles.
  const Coord n = 384;
  const BinaryImage noise = gen::uniform_noise(n, n, 0.5, 2606);
  const BinaryImage landcover = gen::landcover_like(n, n, 2606);
  const GrayImage plasma = gen::plasma(n, n, 2606);
  LabelerOptions options;
  options.threads = 4;
  LabelScratch scratch;
  const auto expect_oracle = [&](Algorithm algorithm, LabelRequest request,
                                 const char* image) {
    const std::span<FeatureCell> cells =
        scratch.feature_cells(static_cast<std::size_t>(n) * n + 1);
    std::memset(static_cast<void*>(cells.data()), 0xa5, cells.size_bytes());
    request.outputs.stats = true;
    const LabelResponse got =
        make_labeler(algorithm, options)->run(request, scratch);
    ASSERT_TRUE(got.stats.has_value());
    EXPECT_GT(got.num_components, 1);
    EXPECT_EQ(got.stats->components,
              compute_stats(got.labels, got.num_components).components)
        << algorithm_info(algorithm).name << " on " << image << ", "
        << (request.connectivity == Connectivity::Eight ? "8" : "4")
        << "-conn" << (request.threshold.has_value() ? ", gray" : "");
  };
  for (const Algorithm algorithm :
       {Algorithm::Aremsp, Algorithm::Paremsp, Algorithm::ParemspRle,
        Algorithm::ParemspTiled}) {
    for (const Connectivity conn :
         {Connectivity::Eight, Connectivity::Four}) {
      if (conn == Connectivity::Four &&
          !algorithm_info(algorithm).supports_four_connectivity) {
        continue;
      }
      for (const BinaryImage* image : {&noise, &landcover}) {
        LabelRequest request;
        request.input = ConstImageView(*image);
        request.connectivity = conn;
        expect_oracle(algorithm, request,
                      image == &noise ? "noise" : "landcover");
      }
    }
    LabelRequest gray;
    gray.input = ConstImageView(plasma);
    gray.threshold = 0.5;
    expect_oracle(algorithm, gray, "plasma");
  }
}

TEST(ComponentStats, MeasuresAreasBoxesCentroids) {
  const BinaryImage img = binary_from_ascii(
      R"(
##...
##...
....#)");
  const auto res = labeled(img);
  ASSERT_EQ(res.num_components, 2);
  const ComponentStats stats = compute_stats(res.labels, res.num_components);
  ASSERT_EQ(stats.count(), 2);

  const ComponentInfo& square = stats.components[0];
  EXPECT_EQ(square.area, 4);
  EXPECT_EQ(square.bbox, (BoundingBox{0, 0, 1, 1}));
  EXPECT_DOUBLE_EQ(square.centroid_row, 0.5);
  EXPECT_DOUBLE_EQ(square.centroid_col, 0.5);

  const ComponentInfo& dot = stats.components[1];
  EXPECT_EQ(dot.area, 1);
  EXPECT_EQ(dot.bbox, (BoundingBox{2, 4, 2, 4}));
  EXPECT_EQ(stats.total_foreground(), 5);
  EXPECT_EQ(stats.largest_area(), 4);
  EXPECT_DOUBLE_EQ(stats.mean_area(), 2.5);
}

TEST(ComponentStats, EmptyLabeling) {
  const ComponentStats stats = compute_stats(LabelImage(4, 4), 0);
  EXPECT_EQ(stats.count(), 0);
  EXPECT_EQ(stats.total_foreground(), 0);
  EXPECT_EQ(stats.largest_area(), 0);
  EXPECT_DOUBLE_EQ(stats.mean_area(), 0.0);
}

TEST(ComponentStats, RejectsOutOfRangeLabels) {
  LabelImage labels(1, 2);
  labels(0, 0) = 3;
  EXPECT_THROW(compute_stats(labels, 2), PreconditionError);
}

TEST(ComponentStats, RejectsEmptyClaimedComponent) {
  LabelImage labels(1, 2);
  labels(0, 0) = 1;  // label 2 claimed but absent
  EXPECT_THROW(compute_stats(labels, 2), PreconditionError);
}

TEST(AreaHistogram, PowerOfTwoBins) {
  const BinaryImage img = binary_from_ascii(
      R"(
#.##.####
.........)");
  const auto res = labeled(img);
  const auto hist = area_histogram(compute_stats(res.labels,
                                                 res.num_components));
  // Areas: 1, 2, 4 -> bins [1,2), [2,4), [4,8).
  ASSERT_EQ(hist.size(), 3u);
  EXPECT_EQ(hist[0], 1);
  EXPECT_EQ(hist[1], 1);
  EXPECT_EQ(hist[2], 1);
}

// --- Equivalence / canonicalization ----------------------------------------------

TEST(Equivalence, DetectsIdenticalAndPermuted) {
  const BinaryImage img = gen::uniform_noise(24, 24, 0.45, 3);
  const auto a = labeled(img);
  // Permute labels: swap 1 <-> 2 everywhere.
  LabelImage permuted = a.labels;
  for (Label& l : permuted.pixels()) {
    if (l == 1) l = 2;
    else if (l == 2) l = 1;
  }
  EXPECT_TRUE(equivalent_labelings(a.labels, a.labels));
  EXPECT_TRUE(equivalent_labelings(a.labels, permuted));
}

TEST(Equivalence, RejectsMergedAndSplitComponents) {
  const BinaryImage img = binary_from_ascii("#.#");
  const auto a = labeled(img);  // labels 1 and 2

  LabelImage merged = a.labels;
  for (Label& l : merged.pixels()) {
    if (l == 2) l = 1;
  }
  EXPECT_FALSE(equivalent_labelings(a.labels, merged));
  EXPECT_FALSE(equivalent_labelings(merged, a.labels));
}

TEST(Equivalence, RejectsBackgroundMismatch) {
  const BinaryImage img = binary_from_ascii("##");
  const auto a = labeled(img);
  LabelImage other = a.labels;
  other(0, 1) = 0;
  EXPECT_FALSE(equivalent_labelings(a.labels, other));
}

TEST(Equivalence, RejectsDimensionMismatch) {
  EXPECT_FALSE(equivalent_labelings(LabelImage(2, 2), LabelImage(2, 3)));
}

TEST(CanonicalRelabel, ProducesRasterFirstOrder) {
  LabelImage labels(2, 3);
  labels(0, 0) = 7;
  labels(0, 2) = 3;
  labels(1, 1) = 7;
  const Label n = canonical_relabel(labels);
  EXPECT_EQ(n, 2);
  EXPECT_EQ(labels(0, 0), 1);
  EXPECT_EQ(labels(0, 2), 2);
  EXPECT_EQ(labels(1, 1), 1);
}

TEST(CanonicalRelabel, EquivalentLabelingsBecomeEqual) {
  const BinaryImage img = gen::misc_like(32, 32, 6);
  auto a = labeled(img);
  LabelImage shuffled = a.labels;
  for (Label& l : shuffled.pixels()) {
    if (l != 0) l = l * 17 + 3;  // injective remap
  }
  canonical_relabel(shuffled);
  canonical_relabel(a.labels);
  EXPECT_EQ(shuffled, a.labels);
}

// --- Validator ---------------------------------------------------------------------

TEST(Validate, AcceptsOracleOutput) {
  const BinaryImage img = gen::landcover_like(48, 48, 9);
  const auto res = labeled(img);
  const auto v = validate_labeling(img, res.labels, res.num_components);
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_TRUE(static_cast<bool>(v));
}

TEST(Validate, CatchesDimensionMismatch) {
  const BinaryImage img(4, 4);
  EXPECT_FALSE(validate_labeling(img, LabelImage(4, 5), 0).ok);
}

TEST(Validate, CatchesLabeledBackground) {
  const BinaryImage img = binary_from_ascii("#.");
  auto res = labeled(img);
  res.labels(0, 1) = 1;
  const auto v = validate_labeling(img, res.labels, res.num_components);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("background"), std::string::npos);
}

TEST(Validate, CatchesUnlabeledForeground) {
  const BinaryImage img = binary_from_ascii("##");
  auto res = labeled(img);
  res.labels(0, 1) = 0;
  EXPECT_FALSE(validate_labeling(img, res.labels, res.num_components).ok);
}

TEST(Validate, CatchesNonConsecutiveLabels) {
  const BinaryImage img = binary_from_ascii("#.#");
  auto res = labeled(img);  // labels 1, 2
  for (Label& l : res.labels.pixels()) {
    if (l == 2) l = 3;
  }
  const auto v = validate_labeling(img, res.labels, 3);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("unused"), std::string::npos);
}

TEST(Validate, CatchesSplitComponent) {
  const BinaryImage img = binary_from_ascii("###");
  auto res = labeled(img);
  res.labels(0, 2) = 2;  // break one run into two labels
  const auto v = validate_labeling(img, res.labels, 2);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("adjacent"), std::string::npos);
}

TEST(Validate, CatchesMergedComponents) {
  const BinaryImage img = binary_from_ascii("#.#");
  auto res = labeled(img);
  for (Label& l : res.labels.pixels()) {
    if (l == 2) l = 1;  // one label spans two components
  }
  const auto v = validate_labeling(img, res.labels, 1);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("more than one"), std::string::npos);
}

TEST(Validate, FourConnectivityTreatsDiagonalAsSeparate) {
  const BinaryImage img = binary_from_ascii(
      R"(
#.
.#)");
  // Under 4-connectivity this is two components.
  const auto res4 = FloodFillLabeler(Connectivity::Four).label(img);
  EXPECT_TRUE(
      validate_labeling(img, res4.labels, res4.num_components,
                        Connectivity::Four)
          .ok);
  // The 8-connectivity labeling (one component) must fail a 4-conn check
  // ... actually a single label spanning diagonal pixels is *not*
  // 4-connected, so the validator flags it.
  const auto res8 = FloodFillLabeler(Connectivity::Eight).label(img);
  EXPECT_FALSE(
      validate_labeling(img, res8.labels, res8.num_components,
                        Connectivity::Four)
          .ok);
}

TEST(Validate, EmptyImageIsValid) {
  EXPECT_TRUE(validate_labeling(BinaryImage(), LabelImage(), 0).ok);
  EXPECT_FALSE(validate_labeling(BinaryImage(), LabelImage(), -1).ok);
}

}  // namespace
}  // namespace paremsp::analysis
