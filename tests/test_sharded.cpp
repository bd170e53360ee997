// Sharded huge-image labeling through the engine: bit-identical
// equivalence with sequential AREMSP (8-conn) and CCLREMSP (4-conn) across
// tile geometries and worker counts, async pipelining, shutdown-mid-shard,
// and degenerate inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <future>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/component_stats.hpp"
#include "analysis/validation.hpp"
#include "common/contracts.hpp"
#include "core/aremsp.hpp"
#include "core/cclremsp.hpp"
#include "core/qos.hpp"
#include "core/rle_labelers.hpp"
#include "engine/engine.hpp"
#include "fixtures.hpp"
#include "image/generators.hpp"

namespace paremsp {
namespace {

using engine::EngineConfig;
using engine::LabelingEngine;
using engine::ShardOptions;

/// Adversarial content mix: organic patches, a seam-crossing spiral, a
/// corner-contact checkerboard, plus noise — every seam type appears.
BinaryImage shard_image(Coord rows, Coord cols, std::uint64_t seed) {
  switch (seed % 4) {
    case 0: return gen::landcover_like(rows, cols, seed);
    case 1: return gen::spiral(rows, cols, 2, 3);
    case 2: return gen::checkerboard(rows, cols, 1);
    default: return gen::uniform_noise(rows, cols, 0.5, seed);
  }
}

/// A request that shards `image` with `options`; the engine borrows the
/// pixels until the returned future is ready.
LabelRequest sharded(ConstImageView image, ShardOptions options = {}) {
  LabelRequest request;
  request.input = image;
  request.shard = options;
  return request;
}

/// sharded() plus fused component stats.
LabelRequest sharded_stats(ConstImageView image, ShardOptions options) {
  LabelRequest request = sharded(image, options);
  request.outputs.stats = true;
  return request;
}

void expect_bit_identical(const LabelResponse& got,
                          const LabelResponse& want,
                          const std::string& context) {
  EXPECT_EQ(got.num_components, want.num_components) << context;
  EXPECT_EQ(got.labels, want.labels) << context;
}

TEST(Sharded, TileGeometryByWorkerCountMatrixIsBitIdenticalToAremsp) {
  const Coord rows = 61, cols = 83;  // odd on purpose: ragged edge tiles
  const AremspLabeler reference;
  const CclremspLabeler reference4(Connectivity::Four);

  const int hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::pair<Coord, Coord>> geometries = {
      {1, cols},     // 1 x N row-strip tiles
      {rows, 1},     // N x 1 column-strip tiles
      {7, 9},        // odd x odd
      {1024, 1024},  // tile > image: single tile
      {1, 1},        // single-pixel tiles
      {16, 16},
  };
  for (const int workers : {1, 2, hw}) {
    LabelingEngine eng({.workers = workers});
    for (const auto& [tr, tc] : geometries) {
      for (std::uint64_t seed = 0; seed < 4; ++seed) {
        const BinaryImage image = shard_image(rows, cols, seed);
        const LabelResponse want = reference.label(image);
        const LabelResponse got =
            eng.submit(sharded(image, {.tile_rows = tr, .tile_cols = tc}))
                .get();
        const std::string context =
            "tiles " + std::to_string(tr) + "x" + std::to_string(tc) +
            " workers " + std::to_string(workers) + " seed " +
            std::to_string(seed);
        expect_bit_identical(got, want, context);
        const auto v = analysis::validate_labeling(image, got.labels,
                                                   got.num_components);
        EXPECT_TRUE(v.ok) << v.error;

        // The same geometry under 4-connectivity numbers like CCLREMSP.
        LabelRequest request;
        request.input = image;
        request.connectivity = Connectivity::Four;
        request.shard = ShardOptions{.tile_rows = tr, .tile_cols = tc};
        const LabelResponse four = eng.submit(request).get();
        const LabelResponse want4 = reference4.label(image);
        EXPECT_EQ(four.num_components, want4.num_components) << context;
        EXPECT_EQ(four.labels, want4.labels) << context << " 4-conn";
      }
    }
    const auto stats = eng.stats();
    EXPECT_EQ(stats.shards_submitted, geometries.size() * 8);
    EXPECT_EQ(stats.shards_completed, geometries.size() * 8);
    EXPECT_GT(stats.shard_tasks_completed, 0u);
    // Shard jobs must not pollute the per-request latency stats.
    EXPECT_EQ(stats.jobs_submitted, 0u);
  }
}

TEST(Sharded, BandRenumberFixtureAcrossBandShapes) {
  // Odd tile heights pair tile rows into one 8-conn band; 8 workers
  // outnumber the bands of the taller grids; 48- and 1024-row tiles make
  // one band, renumbered inline.
  const BinaryImage image = testing::band_renumber_image();
  const LabelResponse want = AremspLabeler().label(image);
  const LabelResponse want4 =
      CclremspLabeler(Connectivity::Four).label(image);
  for (const int workers : {1, 8}) {
    LabelingEngine eng({.workers = workers});
    for (const Coord tr : {1, 3, 5, 7, 8, 48, 1024}) {
      for (const Coord tc : {3, 8, 1024}) {
        const std::string context =
            "tiles " + std::to_string(tr) + "x" + std::to_string(tc) +
            " workers " + std::to_string(workers);
        expect_bit_identical(
            eng.submit(sharded(image, {.tile_rows = tr, .tile_cols = tc}))
                .get(),
            want, context);
        LabelRequest request =
            sharded(image, {.tile_rows = tr, .tile_cols = tc});
        request.connectivity = Connectivity::Four;
        expect_bit_identical(eng.submit(request).get(), want4,
                             context + " 4-conn");
      }
    }
  }
}

TEST(Sharded, WithStatsMatchesPostPassOracleAcrossGeometryWorkerMatrix) {
  // The stats-carrying pipeline: scan jobs accumulate per-tile feature
  // cells, seam jobs unify them through the union-find, the resolve job
  // folds. Value-identity with the post-pass compute_stats oracle must
  // hold for every tile geometry (1-pixel tiles included) and worker
  // count, and the labeling itself must stay bit-identical to AREMSP.
  const Coord rows = 53, cols = 47;
  const AremspLabeler reference;
  const std::vector<std::pair<Coord, Coord>> geometries = {
      {1, 1}, {1, cols}, {rows, 1}, {7, 9}, {16, 16}, {1024, 1024},
  };
  const int hw = std::max(1u, std::thread::hardware_concurrency());
  for (const int workers : {1, 2, hw}) {
    LabelingEngine eng({.workers = workers});
    for (const auto& [tr, tc] : geometries) {
      for (std::uint64_t seed = 0; seed < 4; ++seed) {
        const BinaryImage image = shard_image(rows, cols, seed);
        const LabelResponse want = reference.label(image);
        const LabelResponse got =
            eng.submit(
                   sharded_stats(image, {.tile_rows = tr, .tile_cols = tc}))
                .get();
        const std::string context =
            "tiles " + std::to_string(tr) + "x" + std::to_string(tc) +
            " workers " + std::to_string(workers) + " seed " +
            std::to_string(seed);
        expect_bit_identical(got, want, context);
        const auto oracle =
            analysis::compute_stats(got.labels, got.num_components);
        testing::expect_stats_identical(*got.stats, oracle, context);
      }
    }
  }
}

TEST(Sharded, WithStatsPipelinesConcurrentlyAndFailsCleanlyOnShutdown) {
  // Stats-carrying shards obey the same quiesce contract: futures from
  // runs interrupted by shutdown carry PreconditionError, completed ones
  // carry correct stats; nothing deadlocks or leaks a latch.
  const BinaryImage image = shard_image(48, 48, 1);
  const LabelResponse oracle =
      AremspLabeler().run(testing::stats_request(image));
  auto eng = std::make_unique<LabelingEngine>(EngineConfig{.workers = 3});
  std::vector<std::future<LabelResponse>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(
        eng->submit(sharded_stats(image, {.tile_rows = 8, .tile_cols = 8})));
  }
  eng->shutdown();
  int completed = 0;
  for (auto& f : futures) {
    try {
      const LabelResponse got = f.get();
      EXPECT_EQ(got.labels, oracle.labels);
      testing::expect_stats_identical(*got.stats, *oracle.stats,
                                      "shutdown race survivor");
      ++completed;
    } catch (const PreconditionError&) {
      // Shut down mid-shard: acceptable, as long as the future resolved.
    }
  }
  // At least the runs that finished before shutdown must be correct; the
  // assertion above already guarantees any completed run was exact.
  (void)completed;
}

TEST(Sharded, WithStatsEmptyAndDegenerateImages) {
  LabelingEngine eng({.workers = 2});
  for (const BinaryImage& image :
       {BinaryImage(), BinaryImage(0, 9), BinaryImage(9, 0),
        BinaryImage(1, 1, 1), BinaryImage(3, 5, 1)}) {
    const LabelResponse got =
        eng.submit(sharded_stats(image, {.tile_rows = 2, .tile_cols = 2}))
            .get();
    const LabelResponse want =
        AremspLabeler().run(testing::stats_request(image));
    EXPECT_EQ(got.labels, want.labels);
    testing::expect_stats_identical(
        *got.stats, *want.stats,
        std::to_string(image.rows()) + "x" + std::to_string(image.cols()));
  }
}

TEST(Sharded, ConcurrentLabelersAndRequestShareTheSeamLockPool) {
  // Every seam merge in the process goes through one striped lock pool
  // (uf::seam_locks). Two paremsp2d labelers and one sharded request
  // merge different parent arrays through it at the same time, and each
  // stays bit-identical to sequential AREMSP. The images are above the
  // executor's inline grain, so every phase loop fans out.
  constexpr Coord kSide = 320;
  constexpr std::size_t kCallers = 3;
  constexpr int kRounds = 4;
  std::vector<BinaryImage> images;
  std::vector<LabelResponse> want;
  for (std::size_t i = 0; i < kCallers; ++i) {
    images.push_back(gen::uniform_noise(kSide, kSide, 0.55, 300 + i));
    want.push_back(AremspLabeler().label(images.back()));
  }
  const TiledParemspLabeler first(
      RleConfig{.threads = 4, .tile_rows = 16, .tile_cols = 16});
  const TiledParemspLabeler second(
      RleConfig{.threads = 3, .tile_rows = 24, .tile_cols = 40});
  LabelingEngine eng({.workers = 3});
  const std::function<LabelResponse()> callers[kCallers] = {
      [&] { return first.label(images[0]); },
      [&] { return second.label(images[1]); },
      [&] {
        return eng
            .submit(sharded(images[2], {.tile_rows = 32, .tile_cols = 32}))
            .get();
      }};

  std::latch start(kCallers);
  std::vector<std::vector<LabelResponse>> got(kCallers);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kCallers; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      for (int round = 0; round < kRounds; ++round) {
        got[i].push_back(callers[i]());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < kCallers; ++i) {
    ASSERT_EQ(got[i].size(), static_cast<std::size_t>(kRounds));
    for (const LabelResponse& response : got[i]) {
      expect_bit_identical(response, want[i], "caller " + std::to_string(i));
    }
  }
}

TEST(Sharded, ManyShardsPipelineConcurrently) {
  // Several sharded images in flight at once: the phase latches must not
  // cross-talk between runs, and results must land on the right futures.
  LabelingEngine eng({.workers = 4});
  constexpr int kShards = 6;
  std::vector<BinaryImage> images;
  std::vector<std::future<LabelResponse>> futures;
  for (int i = 0; i < kShards; ++i) {
    images.push_back(shard_image(48 + 3 * i, 52 + 5 * i,
                                 static_cast<std::uint64_t>(i)));
  }
  for (int i = 0; i < kShards; ++i) {
    futures.push_back(eng.submit(sharded(images[static_cast<std::size_t>(i)],
                                         {.tile_rows = 13, .tile_cols = 11})));
  }
  const AremspLabeler reference;
  for (int i = 0; i < kShards; ++i) {
    expect_bit_identical(futures[static_cast<std::size_t>(i)].get(),
                         reference.label(images[static_cast<std::size_t>(i)]),
                         "shard " + std::to_string(i));
  }
}

TEST(Sharded, MixesWithSmallImageTraffic) {
  // A sharded run and regular submit() traffic share the worker pool.
  LabelingEngine eng({.workers = 3});
  const BinaryImage big = gen::landcover_like(96, 96, 5);
  const BinaryImage small = gen::texture_like(24, 24, 6);

  auto shard_future =
      eng.submit(sharded(big, {.tile_rows = 16, .tile_cols = 16}));
  std::vector<std::future<LabelResponse>> small_futures;
  for (int i = 0; i < 20; ++i) {
    small_futures.push_back(eng.submit({.input = small}));
  }

  const AremspLabeler reference;
  expect_bit_identical(shard_future.get(), reference.label(big), "shard");
  const LabelResponse small_want = reference.label(small);
  for (auto& f : small_futures) {
    expect_bit_identical(f.get(), small_want, "small job");
  }
}

TEST(Sharded, EmptyAndDegenerateImages) {
  LabelingEngine eng({.workers = 2});
  // Zero-size image: immediately-ready future, no jobs scheduled.
  const LabelResponse empty = eng.submit(sharded(BinaryImage())).get();
  EXPECT_EQ(empty.num_components, 0);
  EXPECT_EQ(empty.labels.size(), 0);

  const AremspLabeler reference;
  for (const auto [rows, cols] :
       {std::pair<Coord, Coord>{1, 64}, std::pair<Coord, Coord>{64, 1},
        std::pair<Coord, Coord>{1, 1}, std::pair<Coord, Coord>{3, 3}}) {
    const BinaryImage image = gen::uniform_noise(
        rows, cols, 0.6, static_cast<std::uint64_t>(rows * 131 + cols));
    expect_bit_identical(
        eng.submit(sharded(image, {.tile_rows = 4, .tile_cols = 4})).get(),
        reference.label(image),
        std::to_string(rows) + "x" + std::to_string(cols));
  }
  // All-foreground and all-background planes.
  expect_bit_identical(
      eng.submit(sharded(BinaryImage(33, 29, 1),
                         {.tile_rows = 8, .tile_cols = 8}))
          .get(),
      reference.label(BinaryImage(33, 29, 1)), "all foreground");
  expect_bit_identical(
      eng.submit(sharded(BinaryImage(33, 29, 0),
                         {.tile_rows = 8, .tile_cols = 8}))
          .get(),
      reference.label(BinaryImage(33, 29, 0)), "all background");
}

TEST(Sharded, SubmitAfterShutdownFailsTheFuture) {
  LabelingEngine eng({.workers = 2});
  const BinaryImage image = gen::landcover_like(40, 40, 9);
  eng.shutdown();
  auto future = eng.submit(sharded(image));
  EXPECT_THROW((void)future.get(), PreconditionError);
}

TEST(Sharded, ShutdownMidShardEitherCompletesOrFailsCleanly) {
  // Race shutdown against in-flight shards many times: every future must
  // become ready, carrying either the exact AREMSP result (the accepted
  // jobs drained in time) or the shutdown PreconditionError — never a
  // hang, never a wrong labeling.
  const BinaryImage image = gen::landcover_like(80, 80, 11);
  const LabelResponse want = AremspLabeler().label(image);
  for (int round = 0; round < 8; ++round) {
    LabelingEngine eng({.workers = 2});
    std::vector<std::future<LabelResponse>> futures;
    for (int i = 0; i < 4; ++i) {
      futures.push_back(
          eng.submit(sharded(image, {.tile_rows = 8, .tile_cols = 8})));
    }
    eng.shutdown();
    int completed = 0, failed = 0;
    for (auto& f : futures) {
      try {
        expect_bit_identical(f.get(), want, "round " + std::to_string(round));
        ++completed;
      } catch (const PreconditionError&) {
        ++failed;
      }
    }
    EXPECT_EQ(completed + failed, 4);
  }
}

TEST(Sharded, RejectsInvalidOptions) {
  LabelingEngine eng({.workers = 1});
  const BinaryImage image(8, 8, 1);
  EXPECT_THROW((void)eng.submit(sharded(image, {.tile_rows = 0})),
               PreconditionError);
  EXPECT_THROW((void)eng.submit(sharded(image, {.tile_cols = 0})),
               PreconditionError);
}

// --- QoS: each shed request fails its future and counts exactly once -------
// The input is freed as soon as get() throws: a ready future must mean no
// worker still reads it, which ASan checks.

TEST(Sharded, QosPreCancelledRequestFailsAndCountsOnce) {
  LabelingEngine eng({.workers = 2});
  auto image = std::make_unique<BinaryImage>(gen::landcover_like(96, 96, 3));
  CancelSource source;
  source.request_cancel();
  LabelRequest request = sharded(*image, {.tile_rows = 16, .tile_cols = 16});
  request.cancel = source.token();
  const auto before = eng.stats();
  auto future = eng.submit(std::move(request));
  EXPECT_THROW((void)future.get(), CancelledError);
  image.reset();
  const auto after = eng.stats();
  EXPECT_EQ(after.jobs_cancelled - before.jobs_cancelled, 1u);
  EXPECT_EQ(after.jobs_shed, before.jobs_shed);
}

TEST(Sharded, QosExpiredDeadlineIsShedAndCountsOnce) {
  LabelingEngine eng({.workers = 2});
  auto image = std::make_unique<BinaryImage>(gen::landcover_like(96, 96, 4));
  LabelRequest request = sharded(*image, {.tile_rows = 16, .tile_cols = 16});
  request.deadline = std::chrono::nanoseconds(1);
  const auto before = eng.stats();
  auto future = eng.submit(std::move(request));
  EXPECT_THROW((void)future.get(), DeadlineExceededError);
  image.reset();
  const auto after = eng.stats();
  EXPECT_EQ(after.jobs_shed - before.jobs_shed, 1u);
  EXPECT_EQ(after.jobs_cancelled, before.jobs_cancelled);
}

TEST(Sharded, ReusesRecycledPlanes) {
  LabelingEngine eng({.workers = 2});
  const BinaryImage image = gen::landcover_like(64, 64, 21);
  LabelResponse first =
      eng.submit(sharded(image, {.tile_rows = 16, .tile_cols = 16})).get();
  const Label* storage = first.labels.pixels().data();
  eng.recycle(std::move(first.labels));
  // The next shard adopts the recycled plane instead of allocating: same
  // backing storage, bit-identical contents.
  LabelResponse second =
      eng.submit(sharded(image, {.tile_rows = 16, .tile_cols = 16})).get();
  EXPECT_EQ(second.labels.pixels().data(), storage);
  expect_bit_identical(second, AremspLabeler().label(image), "recycled");
}

}  // namespace
}  // namespace paremsp
