// Engine streaming sessions + QoS: StreamSession end-to-end equivalence
// through the worker pool, bounded-window backpressure, deadline /
// cancellation semantics on every executor path (one-shot pickup,
// sharded phase boundaries, stream slab boundaries), and clean failure
// under cancellation or shutdown racing a live session. Suites all match
// the Stream* filter used by the TSan CI job:
//
//   ./paremsp_tests --gtest_filter='Stream*'
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <latch>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "core/registry.hpp"
#include "core/request.hpp"
#include "engine/engine.hpp"
#include "engine/stream_session.hpp"
#include "image/generators.hpp"
#include "stream/slab_session.hpp"

namespace paremsp {
namespace {

using engine::EngineConfig;
using engine::LabelingEngine;
using engine::StreamConfig;
using stream::SlabResult;
using stream::StreamOptions;
using stream::StreamResult;

BinaryImage stream_image(Coord rows, Coord cols, std::uint64_t seed) {
  switch (seed % 3) {
    case 0: return gen::landcover_like(rows, cols, seed);
    case 1: return gen::spiral(rows, cols, 2, 3);
    default: return gen::uniform_noise(rows, cols, 0.5, seed);
  }
}

LabelResponse one_shot(ConstImageView input, const StreamOptions& opts) {
  LabelRequest request;
  request.input = input;
  request.connectivity = opts.connectivity;
  request.threshold = opts.threshold;
  request.outputs.stats = opts.stats;
  return make_labeler(Algorithm::AremspRle)->run(request);
}

/// Push `input` through an engine session in `slab_rows`-row slabs and
/// check the composed result against the one-shot reference.
void expect_engine_stream_matches(LabelingEngine& eng, ConstImageView input,
                                  StreamConfig config, Coord slab_rows) {
  const Coord rows = input.rows();
  const Coord cols = input.cols();
  config.options.cols = cols;
  const LabelResponse ref = one_shot(input, config.options);

  auto session = eng.open_stream(config);
  std::vector<std::future<SlabResult>> futures;
  for (Coord r = 0; r < rows; r += slab_rows) {
    const Coord take = std::min(slab_rows, rows - r);
    futures.push_back(session->push_slab(input.subview(r, 0, take, cols)));
  }
  std::vector<LabelImage> planes;
  for (auto& f : futures) planes.push_back(f.get().labels);
  StreamResult done = session->finish().get();

  EXPECT_EQ(done.num_components, ref.num_components);
  ASSERT_EQ(done.slab_remaps.size(), planes.size());
  Coord r0 = 0;
  for (std::size_t k = 0; k < planes.size(); ++k) {
    const std::vector<Label>& remap = done.slab_remaps[k];
    for (Coord r = 0; r < planes[k].rows(); ++r) {
      const Label* got = planes[k].row(r);
      const Label* want = ref.labels.row(r0 + r);
      for (Coord c = 0; c < cols; ++c) {
        ASSERT_EQ(remap[static_cast<std::size_t>(got[c])], want[c])
            << "slab " << k << " pixel (" << r << ", " << c << ")";
      }
    }
    r0 += planes[k].rows();
    // Hand planes back: steady-state sessions should re-label out of the
    // recycled pool (correctness must be unaffected either way).
    session->recycle(std::move(planes[k]));
  }
  if (config.options.stats) {
    ASSERT_TRUE(done.stats.has_value());
    ASSERT_TRUE(ref.stats.has_value());
    EXPECT_EQ(done.stats->components, ref.stats->components);
  }
}

// --- End-to-end through the pool -------------------------------------------

TEST(StreamEngine, SessionMatchesOneShotAcrossWindowsAndConnectivities) {
  LabelingEngine eng({.workers = 4});
  const BinaryImage image = stream_image(96, 72, 7);
  for (const std::size_t window : {std::size_t{1}, std::size_t{4}}) {
    for (const Connectivity conn :
         {Connectivity::Eight, Connectivity::Four}) {
      StreamConfig config;
      config.options.connectivity = conn;
      config.options.stats = true;
      config.window = window;
      expect_engine_stream_matches(eng, ConstImageView(image), config, 5);
    }
  }
  const auto stats = eng.stats();
  EXPECT_EQ(stats.stream_sessions_opened, 4u);
  EXPECT_EQ(stats.stream_sessions_completed, 4u);
  // 96 rows in 5-row slabs = 20 slabs per session.
  EXPECT_EQ(stats.stream_slabs_completed, 80u);
  EXPECT_EQ(stats.jobs_shed, 0u);
  EXPECT_EQ(stats.jobs_cancelled, 0u);
}

TEST(StreamEngine, LargeSlabSessionsAndShardedRequestRunAtOnce) {
  // Slabs of >= 1 Mi pixels fan out as row bands whose helpers run on the
  // engine's own workers, next to the other session's slabs and a sharded
  // request's tile loops. Two sessions (8- and 4-conn; the second slab of
  // each starts on an odd row) and one sharded request run at once on
  // four workers, and each result equals one-shot labeling.
  constexpr Coord kCols = 4096;
  constexpr Coord kSlabRows = 257;
  LabelingEngine eng({.workers = 4});
  const BinaryImage noise =
      gen::uniform_noise(2 * kSlabRows, kCols, 0.5, 24);
  const BinaryImage landcover = gen::landcover_like(2 * kSlabRows, kCols, 24);
  const BinaryImage tiled = gen::uniform_noise(1024, 1024, 0.55, 25);
  const LabelResponse want = make_labeler(Algorithm::AremspRle)->label(tiled);

  StreamConfig eight;
  eight.options.stats = true;
  StreamConfig four = eight;
  four.options.connectivity = Connectivity::Four;
  LabelResponse got;
  std::latch start(3);
  std::vector<std::thread> callers;
  callers.emplace_back([&] {
    start.arrive_and_wait();
    expect_engine_stream_matches(eng, ConstImageView(noise), eight, kSlabRows);
  });
  callers.emplace_back([&] {
    start.arrive_and_wait();
    expect_engine_stream_matches(eng, ConstImageView(landcover), four,
                                 kSlabRows);
  });
  callers.emplace_back([&] {
    LabelRequest request;
    request.input = ConstImageView(tiled);
    request.shard = ShardOptions{.tile_rows = 256, .tile_cols = 256};
    start.arrive_and_wait();
    got = eng.submit(std::move(request)).get();
  });
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(got.num_components, want.num_components);
  EXPECT_EQ(got.labels, want.labels);
  EXPECT_EQ(eng.stats().stream_sessions_completed, 2u);
}

TEST(StreamEngine, WindowOneIsLockstep) {
  // With window = 1 the second push may only return once the first
  // slab's future is already fulfilled — that IS the backpressure
  // contract, observable without any timing assumptions.
  LabelingEngine eng({.workers = 2});
  const BinaryImage image = stream_image(30, 40, 1);
  StreamConfig config;
  config.options.cols = 40;
  config.window = 1;
  auto session = eng.open_stream(config);
  auto f0 = session->push_slab(ConstImageView(image).subview(0, 0, 10, 40));
  auto f1 = session->push_slab(ConstImageView(image).subview(10, 0, 10, 40));
  EXPECT_EQ(f0.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  auto f2 = session->push_slab(ConstImageView(image).subview(20, 0, 10, 40));
  EXPECT_EQ(f1.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  (void)f2.get();
  (void)session->finish().get();
}

// --- Slabs in flight: labels run ahead, folds run in slab order ----------

TEST(StreamEngineInFlight, OneWorkerLabelsAheadWithoutDeadlock) {
  // One worker, window 4, slabs of >= 1 Mi pixels: every label task fans
  // its bands out to the one worker it runs on, and the fold of each slab
  // runs on whichever task finishes later — no task ever waits on another
  // queued behind it. The first slab's odd height puts every later slab
  // on an odd global row.
  constexpr Coord kCols = 4096;
  constexpr Coord kSlabRows = 257;
  LabelingEngine eng({.workers = 1});
  const BinaryImage image = gen::uniform_noise(4 * kSlabRows, kCols, 0.5, 31);
  for (const Connectivity conn : {Connectivity::Eight, Connectivity::Four}) {
    StreamConfig config;
    config.options.connectivity = conn;
    config.options.stats = true;
    config.window = 4;
    expect_engine_stream_matches(eng, ConstImageView(image), config,
                                 kSlabRows);
  }
  EXPECT_EQ(eng.stats().stream_slabs_completed, 8u);
}

TEST(StreamEngineInFlight, CancelAfterDeliveryDropsLabeledLaterSlabs) {
  // Slabs 0 and 1 are small; slab 2 is 4 Mi pixels, so it is still being
  // labeled when slab 1 has been delivered, while the small slabs 3..5
  // are labeled on the other worker and wait for fold 2. Cancelling right
  // after slab 1's delivery fails the first fold in slab order that sees
  // it — slab 2 — and with it the already-labeled slabs behind it.
  constexpr Coord kCols = 2048;
  const std::vector<Coord> heights = {4, 4, 2048, 4, 4, 4};
  constexpr std::size_t kDelivered = 2;  // slabs 0..1 succeed
  Coord rows = 0;
  for (const Coord h : heights) rows += h;
  const BinaryImage image = gen::uniform_noise(rows, kCols, 0.5, 32);
  LabelingEngine eng({.workers = 2});
  // A slow host could finish labeling slab 2 before the cancel; such an
  // attempt still has to fail a suffix of the slabs, and is retried.
  bool observed = false;
  for (int attempt = 0; attempt < 3 && !observed; ++attempt) {
    CancelSource source;
    StreamConfig config;
    config.options.cols = kCols;
    config.window = 4;
    config.cancel = source.token();
    auto session = eng.open_stream(config);
    std::vector<std::future<SlabResult>> futures;
    Coord r = 0;
    for (const Coord h : heights) {
      futures.push_back(
          session->push_slab(ConstImageView(image).subview(r, 0, h, kCols)));
      r += h;
    }
    for (std::size_t k = 0; k < kDelivered; ++k) {
      EXPECT_EQ(futures[k].get().slab_index, k);
    }
    source.request_cancel();
    std::size_t first_failed = heights.size();
    for (std::size_t k = kDelivered; k < heights.size(); ++k) {
      try {
        (void)futures[k].get();
        EXPECT_EQ(first_failed, heights.size())
            << "slab " << k << " delivered after a failed slab";
      } catch (const CancelledError&) {
        first_failed = std::min(first_failed, k);
      }
    }
    EXPECT_THROW((void)session->finish().get(), CancelledError);
    observed = first_failed == kDelivered;
  }
  EXPECT_TRUE(observed) << "slab 2 was folded before the cancel every time";
  EXPECT_GE(eng.stats().jobs_cancelled, 1u);
}

TEST(StreamEngineInFlight, FailedFutureMeansTheSlabIsNoLongerRead) {
  // The borrow contract holds for failed futures too. Slabs 0 (2 Mi px)
  // and 1 (3 Mi px) are labeled at once on two workers; the cancel comes
  // while both labels run, so fold 0 poisons the session while slab 1 is
  // most likely still being labeled. Slab 1's future may fail only once
  // that label has returned: the test overwrites the slab right after,
  // which TSan reports as a race if a label still reads it.
  constexpr Coord kCols = 2048;
  const BinaryImage first_slab = gen::uniform_noise(1024, kCols, 0.5, 36);
  const BinaryImage small = gen::uniform_noise(8, kCols, 0.5, 36);
  LabelingEngine eng({.workers = 2});
  const auto cancelled = [](auto& future) {
    try {
      (void)future.get();
      return false;  // labeled and folded before the cancel
    } catch (const CancelledError&) {
      return true;
    }
  };
  int exercised = 0;
  for (int round = 0; round < 2; ++round) {
    BinaryImage lent = gen::uniform_noise(1536, kCols, 0.5, 37);
    CancelSource source;
    StreamConfig config;
    config.options.cols = kCols;
    config.cancel = source.token();
    auto session = eng.open_stream(config);
    auto slab0 = session->push_slab(ConstImageView(first_slab));
    auto slab1 = session->push_slab(ConstImageView(lent));
    auto slab2 = session->push_slab(ConstImageView(small));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    source.request_cancel();
    exercised += cancelled(slab1) ? 1 : 0;
    std::fill_n(lent.row(0), lent.size(), std::uint8_t{1});
    lent = BinaryImage();  // and free it
    (void)cancelled(slab0);
    (void)cancelled(slab2);
    EXPECT_THROW((void)session->finish().get(), CancelledError);
  }
  EXPECT_GE(exercised, 1) << "both slabs were folded before the cancel";
}

TEST(StreamEngineInFlight, TwoSessionsInFlightAndShardedRequestAtOnce) {
  // Two sessions with three 1 Mi-pixel slabs each keep two slabs in
  // flight apiece (the third reuses the first one's work area), next to
  // a sharded request's tile loops, on four workers; each result equals
  // one-shot labeling.
  constexpr Coord kCols = 4096;
  constexpr Coord kSlabRows = 257;
  LabelingEngine eng({.workers = 4});
  const BinaryImage noise =
      gen::uniform_noise(3 * kSlabRows, kCols, 0.5, 33);
  const BinaryImage landcover = gen::landcover_like(3 * kSlabRows, kCols, 33);
  const BinaryImage tiled = gen::uniform_noise(1024, 1024, 0.55, 34);
  const LabelResponse want = make_labeler(Algorithm::AremspRle)->label(tiled);

  StreamConfig eight;
  eight.options.stats = true;
  eight.window = 2;
  StreamConfig four = eight;
  four.options.connectivity = Connectivity::Four;
  LabelResponse got;
  std::latch start(3);
  std::vector<std::thread> callers;
  callers.emplace_back([&] {
    start.arrive_and_wait();
    expect_engine_stream_matches(eng, ConstImageView(noise), eight, kSlabRows);
  });
  callers.emplace_back([&] {
    start.arrive_and_wait();
    expect_engine_stream_matches(eng, ConstImageView(landcover), four,
                                 kSlabRows);
  });
  callers.emplace_back([&] {
    LabelRequest request;
    request.input = ConstImageView(tiled);
    request.shard = ShardOptions{.tile_rows = 256, .tile_cols = 256};
    start.arrive_and_wait();
    got = eng.submit(std::move(request)).get();
  });
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(got.num_components, want.num_components);
  EXPECT_EQ(got.labels, want.labels);
  EXPECT_EQ(eng.stats().stream_slabs_completed, 6u);
}

TEST(StreamEngineInFlight, WorkingBytesStayWithinWindowTimesCoreSession) {
  // Each slab in flight holds a work area of its own, so the session's
  // slab bytes may grow by the window factor over push_slab's — and by
  // no more: areas are capped at the window and reused.
  constexpr Coord kCols = 1024;
  constexpr Coord kSlabRows = 64;
  constexpr std::size_t kWindow = 3;
  const BinaryImage image = gen::uniform_noise(12 * kSlabRows, kCols, 0.5, 35);
  StreamOptions opts;
  opts.cols = kCols;
  opts.stats = true;
  stream::SlabSession core(opts);
  for (Coord r = 0; r < image.rows(); r += kSlabRows) {
    (void)core.push_slab(
        ConstImageView(image).subview(r, 0, kSlabRows, kCols));
  }
  ASSERT_GT(core.slab_working_bytes(), 0u);

  LabelingEngine eng({.workers = 4});
  StreamConfig config;
  config.options = opts;
  config.window = kWindow;
  auto session = eng.open_stream(config);
  std::vector<std::future<SlabResult>> futures;
  for (Coord r = 0; r < image.rows(); r += kSlabRows) {
    futures.push_back(session->push_slab(
        ConstImageView(image).subview(r, 0, kSlabRows, kCols)));
  }
  for (auto& f : futures) session->recycle(std::move(f.get().labels));
  (void)session->finish().get();
  EXPECT_GT(session->slab_working_bytes(), 0u);
  EXPECT_LE(session->slab_working_bytes(),
            kWindow * core.slab_working_bytes());
}

// --- Validation (caller bugs throw synchronously, nothing poisons) ---------

TEST(StreamEngineValidation, RejectsBadConfigs) {
  LabelingEngine eng({.workers = 1});
  StreamConfig no_cols;  // options.cols defaults to 0
  EXPECT_THROW((void)eng.open_stream(no_cols), PreconditionError);

  StreamConfig zero_window;
  zero_window.options.cols = 8;
  zero_window.window = 0;
  EXPECT_THROW((void)eng.open_stream(zero_window), PreconditionError);

  StreamConfig zero_deadline;
  zero_deadline.options.cols = 8;
  zero_deadline.deadline = Deadline{0};
  EXPECT_THROW((void)eng.open_stream(zero_deadline), PreconditionError);

  StreamConfig negative_deadline;
  negative_deadline.options.cols = 8;
  negative_deadline.deadline = Deadline{-5};
  EXPECT_THROW((void)eng.open_stream(negative_deadline), PreconditionError);
}

TEST(StreamEngineValidation, CallerBugsThrowWithoutPoisoningTheSession) {
  LabelingEngine eng({.workers = 2});
  const BinaryImage image = stream_image(24, 32, 2);
  StreamConfig config;
  config.options.cols = 32;
  auto session = eng.open_stream(config);

  const BinaryImage wrong_width(4, 16);
  EXPECT_THROW((void)session->push_slab(ConstImageView(wrong_width)),
               PreconditionError);
  EXPECT_THROW(
      (void)session->push_slab(ConstImageView(image).subview(0, 0, 0, 32)),
      PreconditionError);

  // The rejected calls must not have broken the session.
  auto fut = session->push_slab(ConstImageView(image));
  EXPECT_EQ(fut.get().rows, 24);
  StreamResult done = session->finish().get();
  EXPECT_EQ(done.slabs, 1u);

  EXPECT_THROW((void)session->push_slab(ConstImageView(image)),
               PreconditionError);  // push after finish
  EXPECT_THROW((void)session->finish(), PreconditionError);  // double finish
}

// --- QoS: deadlines and cancellation on every executor path ----------------

TEST(StreamEngineQoS, ExpiredDeadlineShedsStreamSlabs) {
  LabelingEngine eng({.workers = 2});
  const BinaryImage image = stream_image(16, 24, 3);
  StreamConfig config;
  config.options.cols = 24;
  config.deadline = std::chrono::nanoseconds(1);  // expired by any pickup
  auto session = eng.open_stream(config);
  auto slab = session->push_slab(ConstImageView(image));
  auto done = session->finish();
  EXPECT_THROW((void)slab.get(), DeadlineExceededError);
  EXPECT_THROW((void)done.get(), DeadlineExceededError);
  EXPECT_GE(eng.stats().jobs_shed, 1u);
  EXPECT_EQ(eng.stats().stream_sessions_completed, 0u);
}

TEST(StreamEngineQoS, PreCancelledTokenFailsStreamSlabs) {
  LabelingEngine eng({.workers = 2});
  const BinaryImage image = stream_image(16, 24, 4);
  CancelSource source;
  source.request_cancel();
  StreamConfig config;
  config.options.cols = 24;
  config.cancel = source.token();
  auto session = eng.open_stream(config);
  auto slab = session->push_slab(ConstImageView(image));
  EXPECT_THROW((void)slab.get(), CancelledError);
  // A poisoned session fails later ops with the original cause.
  auto done = session->finish();
  EXPECT_THROW((void)done.get(), CancelledError);
  EXPECT_GE(eng.stats().jobs_cancelled, 1u);
}

TEST(StreamEngineQoS, OneShotDeadlineShedsAtPickup) {
  LabelingEngine eng({.workers = 2});
  const BinaryImage image = stream_image(32, 32, 5);
  LabelRequest request;
  request.input = ConstImageView(image);
  request.deadline = std::chrono::nanoseconds(1);
  auto fut = eng.submit(std::move(request));
  EXPECT_THROW((void)fut.get(), DeadlineExceededError);
  const auto stats = eng.stats();
  EXPECT_GE(stats.jobs_shed, 1u);
  EXPECT_GE(stats.jobs_failed, 1u);  // shed jobs ARE failed completions
}

TEST(StreamEngineQoS, OneShotPreCancelledFailsCleanly) {
  LabelingEngine eng({.workers = 2});
  const BinaryImage image = stream_image(32, 32, 6);
  CancelSource source;
  source.request_cancel();
  LabelRequest request;
  request.input = ConstImageView(image);
  request.cancel = source.token();
  auto fut = eng.submit(std::move(request));
  EXPECT_THROW((void)fut.get(), CancelledError);
  EXPECT_GE(eng.stats().jobs_cancelled, 1u);
}

TEST(StreamEngineQoS, ShardedDeadlineShedsAtPhaseBoundary) {
  LabelingEngine eng({.workers = 2});
  const BinaryImage image = stream_image(64, 64, 7);
  LabelRequest request;
  request.input = ConstImageView(image);
  request.shard = ShardOptions{};
  request.deadline = std::chrono::nanoseconds(1);
  auto fut = eng.submit(std::move(request));
  EXPECT_THROW((void)fut.get(), DeadlineExceededError);
  EXPECT_GE(eng.stats().jobs_shed, 1u);
}

TEST(StreamEngineQoS, ShardedPreCancelledFailsCleanly) {
  LabelingEngine eng({.workers = 2});
  const BinaryImage image = stream_image(64, 64, 8);
  CancelSource source;
  source.request_cancel();
  LabelRequest request;
  request.input = ConstImageView(image);
  request.shard = ShardOptions{};
  request.cancel = source.token();
  auto fut = eng.submit(std::move(request));
  EXPECT_THROW((void)fut.get(), CancelledError);
  EXPECT_GE(eng.stats().jobs_cancelled, 1u);
}

// --- Races (TSan targets) --------------------------------------------------

TEST(StreamEngineRace, CancellationMidSessionIsClean) {
  LabelingEngine eng({.workers = 4});
  const BinaryImage image = stream_image(200, 48, 9);
  CancelSource source;
  StreamConfig config;
  config.options.cols = 48;
  config.window = 4;
  config.cancel = source.token();
  auto session = eng.open_stream(config);

  std::vector<std::future<SlabResult>> futures;
  std::thread producer([&] {
    for (Coord r = 0; r < 200; r += 2) {
      try {
        futures.push_back(
            session->push_slab(ConstImageView(image).subview(r, 0, 2, 48)));
      } catch (const PreconditionError&) {
        break;  // not expected, but harmless if validation ever raced
      }
    }
  });
  source.request_cancel();  // races slab processing and blocked pushes
  producer.join();

  std::size_t delivered = 0;
  std::size_t cancelled = 0;
  for (auto& f : futures) {
    try {
      (void)f.get();
      ++delivered;
    } catch (const CancelledError&) {
      ++cancelled;
    }
  }
  EXPECT_EQ(delivered + cancelled, futures.size());
  // Whether or not the token won the race against the slabs, it fired
  // before finish() — the resolve op must observe it.
  EXPECT_THROW((void)session->finish().get(), CancelledError);
  EXPECT_GE(eng.stats().jobs_cancelled, 1u);
}

TEST(StreamEngineRace, ShutdownMidSessionFailsFuturesCleanly) {
  std::optional<LabelingEngine> eng;
  eng.emplace(EngineConfig{.workers = 2});
  const BinaryImage image = stream_image(120, 40, 10);
  StreamConfig config;
  config.options.cols = 40;
  config.window = 8;
  auto session = eng->open_stream(config);

  std::vector<std::future<SlabResult>> futures;
  for (Coord r = 0; r < 120; r += 2) {
    futures.push_back(
        session->push_slab(ConstImageView(image).subview(r, 0, 2, 40)));
  }
  eng->shutdown();  // races the chained slab tasks

  std::size_t delivered = 0;
  std::size_t failed = 0;
  for (auto& f : futures) {
    try {
      (void)f.get();
      ++delivered;
    } catch (const PreconditionError&) {
      ++failed;  // "LabelingEngine shut down mid-session"
    }
  }
  EXPECT_EQ(delivered + failed, futures.size());
  // After shutdown every new op fails; the future never hangs.
  EXPECT_THROW((void)session->finish().get(), PreconditionError);
}

}  // namespace
}  // namespace paremsp
