// Unified request/response API: Labeler::run, its label() convenience and
// LabelingEngine::submit agree bit-for-bit, per-request connectivity is
// validated like construction, and OutputSet/label_out/shard route outputs
// as documented.
#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "analysis/component_stats.hpp"
#include "common/contracts.hpp"
#include "core/label_scratch.hpp"
#include "core/registry.hpp"
#include "core/request.hpp"
#include "engine/engine.hpp"
#include "fixtures.hpp"
#include "image/generators.hpp"

namespace paremsp {
namespace {

using engine::EngineConfig;
using engine::LabelingEngine;

BinaryImage test_image(Coord rows = 48, Coord cols = 64,
                       std::uint64_t seed = 11) {
  return gen::landcover_like(rows, cols, seed);
}

// --- label(view) is run() with a default request ----------------------------

TEST(LabelRequestApi, LabelMatchesRunForEveryAlgorithm) {
  const BinaryImage image = test_image();
  for (const auto& info : algorithm_catalog()) {
    for (const Connectivity connectivity :
         {Connectivity::Eight, Connectivity::Four}) {
      if (!info.supports(connectivity)) continue;
      const std::string context =
          std::string(info.name) + " " + to_string(connectivity);
      const auto labeler =
          make_labeler(info.id, LabelerOptions{.connectivity = connectivity});
      const LabelResponse via_label = labeler->label(image);
      const LabelResponse via_run = labeler->run({.input = image});
      EXPECT_EQ(via_label.labels, via_run.labels) << context;
      EXPECT_EQ(via_label.num_components, via_run.num_components) << context;
      EXPECT_FALSE(via_label.stats.has_value()) << context;

      // A stats request labels identically and measures like the
      // post-pass over those labels.
      const LabelResponse with_stats =
          labeler->run(testing::stats_request(image));
      EXPECT_EQ(with_stats.labels, via_label.labels) << context;
      ASSERT_TRUE(with_stats.stats.has_value()) << context;
      paremsp::testing::expect_stats_identical(
          *with_stats.stats,
          analysis::compute_stats(via_label.labels, via_label.num_components),
          context);
    }
  }
}

TEST(LabelRequestApi, LabelTakesAStridedRoi) {
  // label() takes a view: an ROI of a larger raster (pitch > cols) labels
  // in place, exactly like its materialized copy.
  const BinaryImage parent = gen::texture_like(80, 120, 8);
  const ConstImageView roi = ConstImageView(parent).subview(8, 12, 64, 96);
  ASSERT_GT(roi.pitch(), roi.cols());
  const BinaryImage copy = materialize(roi);
  for (const auto& info : algorithm_catalog()) {
    const auto labeler = make_labeler(info.id);
    const LabelResponse got = labeler->label(roi);
    const LabelResponse want = labeler->label(copy);
    EXPECT_EQ(got.labels, want.labels) << info.name;
    EXPECT_EQ(got.num_components, want.num_components) << info.name;
  }
}

TEST(LabelRequestApi, WarmScratchRunIsBitIdentical) {
  const BinaryImage small = test_image(32, 32, 1);
  const BinaryImage big = test_image(64, 96, 2);
  const auto labeler = make_labeler(Algorithm::Aremsp);
  LabelScratch scratch;
  for (const BinaryImage* image : {&small, &big, &small}) {
    LabelRequest request;
    request.input = *image;
    request.outputs.stats = true;
    LabelResponse warm = labeler->run(request, scratch);
    const LabelResponse cold = labeler->run(request);
    EXPECT_EQ(warm.labels, cold.labels);
    EXPECT_EQ(warm.num_components, cold.num_components);
    paremsp::testing::expect_stats_identical(*warm.stats, *cold.stats,
                                             "warm vs cold");
    scratch.recycle_plane(std::move(warm.labels));
  }
}

TEST(LabelRequestApi, StatsOnlyRequestSkipsThePlane) {
  const BinaryImage image = test_image();
  const auto labeler = make_labeler(Algorithm::Aremsp);
  const LabelResponse want = labeler->run(testing::stats_request(image));

  LabelRequest request;
  request.input = image;
  request.outputs.labels = false;
  request.outputs.stats = true;
  const LabelResponse response = labeler->run(request);
  EXPECT_TRUE(response.labels.empty());
  EXPECT_EQ(response.num_components, want.num_components);
  paremsp::testing::expect_stats_identical(*response.stats, *want.stats,
                                           "stats-only");
}

// --- Per-request connectivity ------------------------------------------------

TEST(LabelRequestApi, ConnectivityOverrideMatchesDedicatedLabeler) {
  const BinaryImage image = test_image();
  // Labeler constructed with the 8-connectivity default...
  const auto labeler = make_labeler(Algorithm::Cclremsp);
  // ...but the request asks for 4-connectivity.
  LabelRequest request;
  request.input = image;
  request.connectivity = Connectivity::Four;
  const LabelResponse got = labeler->run(request);

  const auto four = make_labeler(
      Algorithm::Cclremsp, LabelerOptions{.connectivity = Connectivity::Four});
  const LabelResponse want = four->label(image);
  EXPECT_EQ(got.labels, want.labels);
  EXPECT_EQ(got.num_components, want.num_components);

  // And the default (no override) still labels 8-connected.
  LabelRequest def;
  def.input = image;
  EXPECT_EQ(labeler->run(def).num_components,
            labeler->label(image).num_components);
}

// --- Engine: submit(LabelRequest) matches a direct run ----------------------

TEST(LabelRequestApi, EngineSubmitRequestMatchesDirectRun) {
  const std::vector<BinaryImage> images = {
      test_image(32, 48, 1), test_image(64, 64, 2), test_image(48, 96, 3)};
  EngineConfig config;
  config.workers = 2;
  LabelingEngine eng(config);
  const auto reference = make_labeler(config.algorithm, config.labeler);

  std::vector<std::future<LabelResponse>> futures;
  for (const BinaryImage& image : images) {
    LabelRequest request;
    request.input = image;
    request.outputs.stats = true;
    futures.push_back(eng.submit(std::move(request)));
  }
  for (std::size_t i = 0; i < images.size(); ++i) {
    LabelResponse got = futures[i].get();
    const LabelResponse want =
        reference->run(testing::stats_request(images[i]));
    EXPECT_EQ(got.labels, want.labels) << "image " << i;
    EXPECT_EQ(got.num_components, want.num_components);
    paremsp::testing::expect_stats_identical(*got.stats, *want.stats,
                                             "engine request " +
                                                 std::to_string(i));
  }
}

TEST(LabelRequestApi, EngineSubmitRequestWithLabelOut) {
  const BinaryImage image = test_image();
  const auto reference = make_labeler(Algorithm::Aremsp);
  const LabelResponse want = reference->label(image);

  LabelingEngine eng(EngineConfig{.workers = 2});
  LabelImage destination(image.rows(), image.cols(), -1);
  LabelRequest request;
  request.input = image;
  request.label_out = MutableImageView(destination);
  LabelResponse response = eng.submit(std::move(request)).get();
  EXPECT_TRUE(response.labels.empty());
  EXPECT_EQ(response.num_components, want.num_components);
  EXPECT_EQ(destination, want.labels);
}

TEST(LabelRequestApi, EngineConnectivityOverridePerJob) {
  const BinaryImage image = test_image();
  EngineConfig config;
  config.workers = 1;
  config.algorithm = Algorithm::Cclremsp;
  LabelingEngine eng(config);

  LabelRequest four;
  four.input = image;
  four.connectivity = Connectivity::Four;
  const auto want = make_labeler(
      Algorithm::Cclremsp, LabelerOptions{.connectivity = Connectivity::Four});
  EXPECT_EQ(eng.submit(std::move(four)).get().labels, want->label(image).labels);

  // An unsupported override fails THAT job's future with the registry's
  // uniform PreconditionError; the engine keeps serving.
  LabelingEngine aremsp_eng(
      EngineConfig{.workers = 1, .algorithm = Algorithm::Aremsp});
  LabelRequest bad;
  bad.input = image;
  bad.connectivity = Connectivity::Four;  // aremsp is 8-only
  auto failed = aremsp_eng.submit(std::move(bad));
  EXPECT_THROW((void)failed.get(), PreconditionError);
  EXPECT_EQ(aremsp_eng.submit({.input = image}).get().labels,
            make_labeler(Algorithm::Aremsp)->label(image).labels);

  // The default engine's aremsp_rle workers serve both connectivities: a
  // 4-connectivity override is bit-identical to CCLREMSP.
  LabelingEngine default_eng(EngineConfig{.workers = 1});
  LabelRequest default_four;
  default_four.input = image;
  default_four.connectivity = Connectivity::Four;
  EXPECT_EQ(default_eng.submit(std::move(default_four)).get().labels,
            want->label(image).labels);
}

// --- Engine: sharded requests ------------------------------------------------

TEST(LabelRequestApi, ShardedRequestMatchesSequentialAremsp) {
  const BinaryImage image = test_image(96, 128, 21);
  const LabelResponse want =
      make_labeler(Algorithm::Aremsp)->run(testing::stats_request(image));

  LabelingEngine eng(EngineConfig{.workers = 2});
  LabelRequest request;
  request.input = image;
  request.outputs.stats = true;
  request.shard = ShardOptions{.tile_rows = 24, .tile_cols = 32};
  LabelResponse got = eng.submit(std::move(request)).get();
  EXPECT_EQ(got.labels, want.labels);
  EXPECT_EQ(got.num_components, want.num_components);
  paremsp::testing::expect_stats_identical(*got.stats, *want.stats,
                                           "sharded request");
}

TEST(LabelRequestApi, ShardedRequestHonorsLabelOutAndRoi) {
  // Shard a strided ROI of a larger raster straight into a caller buffer:
  // the full zero-copy request path through the tile pipeline.
  const BinaryImage parent = gen::texture_like(80, 120, 8);
  const ConstImageView roi = ConstImageView(parent).subview(8, 12, 64, 96);
  const LabelResponse want =
      make_labeler(Algorithm::Aremsp)->label(materialize(roi));

  LabelingEngine eng(EngineConfig{.workers = 2});
  LabelImage destination(64, 96, -1);
  LabelRequest request;
  request.input = roi;
  request.label_out = MutableImageView(destination);
  request.shard = ShardOptions{.tile_rows = 20, .tile_cols = 24};
  LabelResponse got = eng.submit(std::move(request)).get();
  EXPECT_TRUE(got.labels.empty());
  EXPECT_EQ(got.num_components, want.num_components);
  EXPECT_EQ(destination, want.labels);
}

TEST(LabelRequestApi, ShardedRequestShardsFourConnectivity) {
  const BinaryImage image = test_image();
  const LabelImage want4 =
      make_labeler(Algorithm::Cclremsp,
                   LabelerOptions{.connectivity = Connectivity::Four})
          ->label(image)
          .labels;
  LabelingEngine eng(EngineConfig{.workers = 1});
  LabelRequest request;
  request.input = image;
  request.connectivity = Connectivity::Four;
  request.shard = ShardOptions{};
  EXPECT_EQ(eng.submit(std::move(request)).get().labels, want4);

  // The engine's configured default connectivity applies to sharded
  // requests exactly like to worker jobs: a 4-connectivity default shards
  // 4-connected, never silently relabeled 8-connected.
  EngineConfig four_config;
  four_config.workers = 1;
  four_config.algorithm = Algorithm::Cclremsp;
  four_config.labeler.connectivity = Connectivity::Four;
  LabelingEngine four_eng(four_config);
  LabelRequest defaulted;
  defaulted.input = image;
  defaulted.shard = ShardOptions{};
  EXPECT_EQ(four_eng.submit(std::move(defaulted)).get().labels, want4);
  // An explicit 8-connectivity override on the same engine shards 8-conn.
  LabelRequest eight;
  eight.input = image;
  eight.connectivity = Connectivity::Eight;
  eight.shard = ShardOptions{.tile_rows = 16, .tile_cols = 16};
  EXPECT_EQ(four_eng.submit(std::move(eight)).get().labels,
            make_labeler(Algorithm::Aremsp)->label(image).labels);
}

}  // namespace
}  // namespace paremsp
