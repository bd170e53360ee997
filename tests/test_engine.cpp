// Batch labeling engine: queue semantics, scratch reuse, bit-identical
// results under batching and concurrent submission, clean shutdown.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/component_stats.hpp"
#include "analysis/validation.hpp"
#include "common/contracts.hpp"
#include "core/label_scratch.hpp"
#include "core/paremsp_all.hpp"
#include "core/qos.hpp"
#include "engine/engine.hpp"
#include "engine/job_queue.hpp"
#include "fixtures.hpp"
#include "image/generators.hpp"

namespace paremsp {
namespace {

using engine::EngineConfig;
using engine::JobQueue;
using engine::LabelingEngine;

/// A deterministic mixed-content image for (stream, index) coordinates.
BinaryImage stream_image(int stream, int index, Coord rows = 64,
                         Coord cols = 96) {
  const std::uint64_t seed =
      1000003ULL * static_cast<std::uint64_t>(stream) +
      static_cast<std::uint64_t>(index);
  switch (index % 3) {
    case 0: return gen::landcover_like(rows, cols, seed);
    case 1: return gen::texture_like(rows, cols, seed);
    default: return gen::aerial_like(rows, cols, seed);
  }
}

void expect_same_result(const LabelResponse& got, const LabelResponse& want,
                        const std::string& context) {
  EXPECT_EQ(got.num_components, want.num_components) << context;
  EXPECT_EQ(got.labels, want.labels) << context;
}

// --- JobQueue --------------------------------------------------------------

TEST(JobQueue, FifoOrder) {
  JobQueue<int> q(8);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  ASSERT_TRUE(q.push(3));
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
}

TEST(JobQueue, CloseDrainsThenStops) {
  JobQueue<int> q(8);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  q.close();
  EXPECT_FALSE(q.push(3));  // closed: rejected
  EXPECT_EQ(q.pop(), 1);    // but queued items still drain
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), std::nullopt);
  EXPECT_EQ(q.pop(), std::nullopt);  // stays drained
}

TEST(JobQueue, PushBlocksUntilPopMakesRoom) {
  JobQueue<int> q(1);
  ASSERT_TRUE(q.push(0));
  std::atomic<int> pushed{0};
  std::thread producer([&] {
    for (int i = 1; i <= 3; ++i) {
      EXPECT_TRUE(q.push(std::move(i)));
      pushed.fetch_add(1);
    }
  });
  // The producer cannot complete until we drain; every item arrives in
  // order despite the capacity-1 bottleneck.
  for (int want = 0; want <= 3; ++want) {
    EXPECT_EQ(q.pop(), want);
  }
  producer.join();
  EXPECT_EQ(pushed.load(), 3);
  EXPECT_EQ(q.size(), 0u);
}

TEST(JobQueue, RejectsZeroCapacity) {
  EXPECT_THROW(JobQueue<int>(0), PreconditionError);
}

// --- LabelScratch reuse ----------------------------------------------------

TEST(LabelScratch, GrowsOnceAcrossDifferentlySizedImages) {
  const AremspLabeler labeler;
  LabelScratch scratch;

  const BinaryImage small = gen::landcover_like(48, 48, 7);
  const BinaryImage big = gen::landcover_like(96, 128, 8);

  // Run one image through the warm-scratch path, recycling the output
  // plane the way the engine's clients do.
  const auto run = [&](const BinaryImage& image) {
    LabelResponse r = labeler.run({.input = image}, scratch);
    expect_same_result(r, labeler.label(image), "scratch run");
    scratch.recycle_plane(std::move(r.labels));
  };

  run(small);
  const std::uint64_t after_small = scratch.grow_count();
  EXPECT_GT(after_small, 0u);

  // Same size again: fully served from the warm workspace.
  run(small);
  EXPECT_EQ(scratch.grow_count(), after_small);

  // Bigger image: buffers grow to the new high-water mark...
  run(big);
  const std::uint64_t after_big = scratch.grow_count();
  EXPECT_GT(after_big, after_small);

  // ...after which neither the big nor the small size allocates again.
  run(big);
  run(small);
  run(big);
  EXPECT_EQ(scratch.grow_count(), after_big);
  EXPECT_GT(scratch.reserved_bytes(), 0u);
}

TEST(LabelScratch, RecycledPlanesAreReusedAndZeroed) {
  const FloodFillLabeler labeler;  // relies on a zeroed plane internally
  LabelScratch scratch;
  const BinaryImage image = gen::texture_like(40, 56, 3);
  const LabelResponse want = labeler.label(image);

  LabelResponse r = labeler.run({.input = image}, scratch);
  expect_same_result(r, want, "before recycling");
  const std::uint64_t reuses = scratch.plane_reuse_count();
  scratch.recycle_plane(std::move(r.labels));

  // The recycled plane is full of stale labels; acquire must hand it back
  // zeroed or flood fill would see every pixel as already visited.
  const LabelResponse again = labeler.run({.input = image}, scratch);
  expect_same_result(again, want, "after recycling");
  EXPECT_GT(scratch.plane_reuse_count(), reuses);
}

TEST(LabelScratch, ScratchRunMatchesLabelForEveryAlgorithm) {
  const BinaryImage a = gen::misc_like(33, 47, 21);
  const BinaryImage b = gen::landcover_like(50, 41, 22);
  for (const AlgorithmInfo& info : algorithm_catalog()) {
    SCOPED_TRACE(std::string(info.name));
    const auto labeler = make_labeler(info.id);
    LabelScratch scratch;
    // Two calls on one scratch: the second runs on warm buffers.
    expect_same_result(labeler->run({.input = a}, scratch), labeler->label(a),
                       "image a");
    expect_same_result(labeler->run({.input = b}, scratch), labeler->label(b),
                       "image b");

    // The catalog's scratch_reuse flag must reflect reality: algorithms
    // carrying it run allocation-free once the scratch is warm.
    if (info.scratch_reuse) {
      LabelResponse warmup = labeler->run({.input = b}, scratch);
      scratch.recycle_plane(std::move(warmup.labels));
      const std::uint64_t grows = scratch.grow_count();
      LabelResponse warm = labeler->run({.input = b}, scratch);
      EXPECT_EQ(scratch.grow_count(), grows)
          << "scratch_reuse algorithm allocated on a warm scratch";
      scratch.recycle_plane(std::move(warm.labels));
    }
  }
}

// --- LabelingEngine --------------------------------------------------------

TEST(LabelingEngine, BatchMatchesDirectCallsBitForBit) {
  for (const Algorithm algorithm :
       {Algorithm::Aremsp, Algorithm::Paremsp, Algorithm::FloodFill}) {
    SCOPED_TRACE(std::string(algorithm_info(algorithm).name));
    const auto direct = make_labeler(algorithm);

    std::vector<BinaryImage> images;
    for (int i = 0; i < 12; ++i) {
      images.push_back(stream_image(0, i, 32 + 8 * (i % 4), 48 + 16 * (i % 3)));
    }
    images.push_back(BinaryImage());  // empty image rides along

    LabelingEngine eng({.workers = 3, .algorithm = algorithm});
    std::vector<std::future<LabelResponse>> futures;
    for (const BinaryImage& image : images) {
      futures.push_back(eng.submit({.input = image}));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const LabelResponse got = futures[i].get();
      const LabelResponse want = direct->label(images[i]);
      expect_same_result(got, want, "image " + std::to_string(i));
      const auto validation = analysis::validate_labeling(
          images[i], got.labels, got.num_components);
      EXPECT_TRUE(validation.ok) << validation.error;
    }
  }
}

TEST(LabelingEngine, SubmitWithStatsMatchesDirectFusedAndFallbackPaths) {
  // Aremsp/Paremsp fuse the stats into the scan; FloodFill exercises the
  // generic post-pass fallback through the same engine path. Both must be
  // value-identical to compute_stats on the (bit-identical) labeling.
  for (const Algorithm algorithm :
       {Algorithm::Aremsp, Algorithm::Paremsp, Algorithm::FloodFill}) {
    SCOPED_TRACE(std::string(algorithm_info(algorithm).name));
    const auto direct = make_labeler(algorithm);

    std::vector<BinaryImage> images;
    for (int i = 0; i < 8; ++i) {
      images.push_back(stream_image(1, i, 24 + 8 * (i % 3), 40 + 8 * (i % 4)));
    }
    images.push_back(BinaryImage());  // empty image rides along

    LabelingEngine eng({.workers = 3, .algorithm = algorithm});
    std::vector<std::future<LabelResponse>> futures;
    for (const BinaryImage& image : images) {
      futures.push_back(eng.submit(testing::stats_request(image)));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const LabelResponse got = futures[i].get();
      const LabelResponse want = direct->label(images[i]);
      expect_same_result(got, want, "image " + std::to_string(i));
      const auto oracle =
          analysis::compute_stats(got.labels, got.num_components);
      testing::expect_stats_identical(*got.stats, oracle,
                                      "image " + std::to_string(i));
    }
    const auto stats = eng.stats();
    EXPECT_EQ(stats.jobs_completed, images.size());
  }
}

TEST(LabelingEngine, WithStatsKeepsArenasAllocationFree) {
  // The fused cells buffer lives in the worker's LabelScratch like every
  // other workspace: once warm, repeated stats jobs must not grow it.
  LabelingEngine eng({.workers = 1, .algorithm = Algorithm::Aremsp});
  const BinaryImage image = gen::texture_like(64, 64, 5);
  for (int i = 0; i < 3; ++i) {  // warm every buffer incl. the cells
    auto r = eng.submit(testing::stats_request(image)).get();
    eng.recycle(std::move(r.labels));
  }
  const auto warm = eng.stats();
  for (int i = 0; i < 5; ++i) {
    auto r = eng.submit(testing::stats_request(image)).get();
    eng.recycle(std::move(r.labels));
  }
  const auto after = eng.stats();
  EXPECT_EQ(after.scratch_grow_count, warm.scratch_grow_count)
      << "stats jobs allocated on a warm arena";
}

TEST(LabelingEngine, DefaultEngineMatchesAremspOnEveryRequestShape) {
  // The default worker algorithm (aremsp_rle) against sequential AREMSP on
  // each request shape the service sends. Every plane-carrying shape has
  // the same size, so recycled planes fit whichever request comes next.
  LabelingEngine eng(EngineConfig{.workers = 1});
  const auto oracle = make_labeler(Algorithm::Aremsp);
  const BinaryImage binary = gen::texture_like(96, 128, 3);
  const GrayImage gray = gen::plasma(96, 128, 4);
  const BinaryImage parent = gen::aerial_like(120, 150, 5);
  const ConstImageView roi = ConstImageView(parent).subview(11, 7, 96, 128);
  const BinaryImage empty;

  const auto serve_every_shape = [&] {
    {
      LabelResponse got = eng.submit({.input = binary}).get();
      expect_same_result(got, oracle->label(binary), "binary");
      eng.recycle(std::move(got.labels));
    }
    {
      SCOPED_TRACE("threshold + stats");
      LabelRequest request = testing::stats_request(gray);
      request.threshold = 0.5;
      LabelResponse got = eng.submit(request).get();
      expect_same_result(got, oracle->run(request), "threshold + stats");
      ASSERT_TRUE(got.stats.has_value());
      EXPECT_EQ(got.stats->components,
                analysis::compute_stats(got.labels, got.num_components)
                    .components);
      eng.recycle(std::move(got.labels));
    }
    {
      LabelResponse got = eng.submit({.input = roi}).get();
      expect_same_result(got, oracle->label(roi), "strided ROI");
      eng.recycle(std::move(got.labels));
    }
    {
      SCOPED_TRACE("label_out");
      LabelImage destination(96, 128, 0xdead);
      LabelRequest request{.input = binary};
      request.label_out = MutableImageView(destination);
      const LabelResponse got = eng.submit(std::move(request)).get();
      const LabelResponse want = oracle->label(binary);
      EXPECT_TRUE(got.labels.empty());
      EXPECT_EQ(got.num_components, want.num_components);
      EXPECT_EQ(destination, want.labels);
    }
    {
      SCOPED_TRACE("no labels");
      LabelRequest request{.input = binary};
      request.outputs.labels = false;
      const LabelResponse got = eng.submit(std::move(request)).get();
      EXPECT_TRUE(got.labels.empty());
      EXPECT_EQ(got.num_components, oracle->label(binary).num_components);
    }
    {
      LabelResponse got = eng.submit({.input = empty}).get();
      expect_same_result(got, oracle->label(empty), "empty image");
      eng.recycle(std::move(got.labels));
    }
  };

  for (int i = 0; i < 2; ++i) serve_every_shape();  // warm the arena
  const auto warm = eng.stats();
  for (int i = 0; i < 3; ++i) serve_every_shape();
  EXPECT_EQ(eng.stats().scratch_grow_count, warm.scratch_grow_count)
      << "the default engine allocated on a warm arena";
}

TEST(LabelingEngine, WorkspaceGaugeCountsRunBuffers) {
  // The default workers keep one tile's runs in their scratch; the
  // workspace gauge must count them on top of the parent array (the
  // plane went to the caller, so nothing else is parked).
  LabelingEngine eng(EngineConfig{.workers = 1});
  const BinaryImage image = gen::uniform_noise(512, 512, 0.5, 7);
  const LabelResponse got = eng.submit({.input = image}).get();
  const std::uint64_t runs = got.timings.counters.runs_extracted;
  ASSERT_GT(runs, 0u);
  const std::size_t parents =
      (static_cast<std::size_t>(image.size()) + 1) * sizeof(Label);
  EXPECT_GE(eng.stats().scratch_reserved_bytes,
            parents + runs * sizeof(paremsp::Run));
}

TEST(LabelingEngine, ConcurrentProducersGetDeterministicResults) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 20;
  LabelingEngine eng({.workers = 2, .queue_capacity = 8});

  // Requests borrow their input: every image outlives its future.
  std::vector<std::vector<BinaryImage>> images(kProducers);
  for (int t = 0; t < kProducers; ++t) {
    for (int i = 0; i < kPerProducer; ++i) {
      images[static_cast<std::size_t>(t)].push_back(stream_image(t, i));
    }
  }
  std::vector<std::vector<std::future<LabelResponse>>> futures(kProducers);
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&eng, &images, &futures, t] {
      for (const BinaryImage& image : images[static_cast<std::size_t>(t)]) {
        futures[static_cast<std::size_t>(t)].push_back(
            eng.submit({.input = image}));
      }
    });
  }
  for (std::thread& p : producers) p.join();

  const AremspLabeler reference;
  for (int t = 0; t < kProducers; ++t) {
    for (int i = 0; i < kPerProducer; ++i) {
      const LabelResponse got =
          futures[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)]
              .get();
      const LabelResponse want = reference.label(stream_image(t, i));
      expect_same_result(got, want,
                         "producer " + std::to_string(t) + " image " +
                             std::to_string(i));
    }
  }

  const auto stats = eng.stats();
  EXPECT_EQ(stats.jobs_submitted, kProducers * kPerProducer);
  EXPECT_EQ(stats.jobs_completed, kProducers * kPerProducer);
  EXPECT_EQ(stats.jobs_failed, 0u);
}

TEST(LabelingEngine, ShutdownDrainsInFlightJobs) {
  std::vector<std::future<LabelResponse>> futures;
  const BinaryImage image = gen::landcover_like(64, 64, 5);
  const LabelResponse want = AremspLabeler().label(image);
  {
    LabelingEngine eng({.workers = 2, .queue_capacity = 4});
    for (int i = 0; i < 16; ++i) {
      futures.push_back(eng.submit({.input = image}));
    }
    eng.shutdown();  // explicit; destructor path covered on scope exit too
    EXPECT_THROW((void)eng.submit({.input = image}), PreconditionError);
    EXPECT_EQ(eng.stats().jobs_completed, 16u);
  }
  // The engine is gone; every accepted job's future still yields a result.
  for (auto& f : futures) {
    expect_same_result(f.get(), want, "drained job");
  }
}

TEST(LabelingEngine, RecyclingKeepsArenasAllocationFree) {
  LabelingEngine eng({.workers = 1, .queue_capacity = 4});
  const Coord rows = 72, cols = 72;

  const auto label_recycled = [&](int i) {
    const BinaryImage image = stream_image(9, i, rows, cols);
    LabelResponse r = eng.submit({.input = image}).get();
    eng.recycle(std::move(r.labels));
  };

  // Warm-up: let the single worker see the image size once.
  for (int i = 0; i < 4; ++i) label_recycled(i);
  const auto warm = eng.stats();

  for (int i = 4; i < 24; ++i) label_recycled(i);
  const auto done = eng.stats();

  // Steady state: zero new allocations, planes served from the pool.
  EXPECT_EQ(done.scratch_grow_count, warm.scratch_grow_count);
  EXPECT_GT(done.plane_reuses, warm.plane_reuses);
  EXPECT_GT(done.scratch_reserved_bytes, 0u);
}

TEST(LabelingEngine, StatsReportThroughputAndLatency) {
  LabelingEngine eng({.workers = 2});
  std::vector<BinaryImage> images;
  for (int i = 0; i < 10; ++i) images.push_back(stream_image(3, i));
  std::vector<std::future<LabelResponse>> futures;
  for (const BinaryImage& image : images) {
    futures.push_back(eng.submit({.input = image}));
  }
  for (auto& f : futures) (void)f.get();

  const auto s = eng.stats();
  EXPECT_EQ(s.jobs_submitted, 10u);
  EXPECT_EQ(s.jobs_completed, 10u);
  EXPECT_GT(s.pixels_labeled, 0);
  EXPECT_GT(s.images_per_sec, 0.0);
  EXPECT_GT(s.latency_p50_ms, 0.0);
  EXPECT_LE(s.latency_p50_ms, s.latency_p99_ms);
  EXPECT_LE(s.latency_p99_ms, s.latency_max_ms + 1e-9);
}

// --- QoS: each shed request fails its future and counts exactly once -------
// The input is freed as soon as get() throws: a ready future must mean no
// worker still reads it, which ASan checks.

TEST(LabelingEngine, QosPreCancelledRequestFailsAndCountsOnce) {
  LabelingEngine eng({.workers = 2});
  auto image = std::make_unique<BinaryImage>(stream_image(5, 0));
  CancelSource source;
  source.request_cancel();
  LabelRequest request{.input = *image};
  request.cancel = source.token();
  const auto before = eng.stats();
  auto future = eng.submit(std::move(request));
  EXPECT_THROW((void)future.get(), CancelledError);
  image.reset();
  const auto after = eng.stats();
  EXPECT_EQ(after.jobs_cancelled - before.jobs_cancelled, 1u);
  EXPECT_EQ(after.jobs_shed, before.jobs_shed);
}

TEST(LabelingEngine, QosExpiredDeadlineIsShedAndCountsOnce) {
  LabelingEngine eng({.workers = 2});
  auto image = std::make_unique<BinaryImage>(stream_image(5, 1));
  LabelRequest request{.input = *image};
  request.deadline = std::chrono::nanoseconds(1);
  const auto before = eng.stats();
  auto future = eng.submit(std::move(request));
  EXPECT_THROW((void)future.get(), DeadlineExceededError);
  image.reset();
  const auto after = eng.stats();
  EXPECT_EQ(after.jobs_shed - before.jobs_shed, 1u);
  EXPECT_EQ(after.jobs_cancelled, before.jobs_cancelled);
}

TEST(LabelingEngine, RejectsInvalidConfig) {
  EXPECT_THROW(LabelingEngine({.workers = -1}), PreconditionError);
  EXPECT_THROW(LabelingEngine({.queue_capacity = 0}), PreconditionError);
  // AREMSP is 8-connectivity only; the constructor validates eagerly so a
  // bad combination fails on the caller's thread, not inside every job.
  EngineConfig bad;
  bad.labeler.connectivity = Connectivity::Four;
  bad.algorithm = Algorithm::Aremsp;
  EXPECT_THROW(LabelingEngine{bad}, PreconditionError);
}

}  // namespace
}  // namespace paremsp
