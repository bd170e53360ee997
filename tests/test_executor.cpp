// The fork-join executor (common/executor.hpp): inline below the grain,
// fan-out above it, errors and quiescence, refused and late helpers — and
// every parallel labeler on an image above the grain, so race checkers see
// their phase loops really fan out.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/executor.hpp"
#include "core/aremsp.hpp"
#include "core/cclremsp.hpp"
#include "core/registry.hpp"
#include "engine/engine.hpp"
#include "fixtures.hpp"
#include "image/generators.hpp"

namespace paremsp {
namespace {

/// Refuses every helper, like a pool that has shut down.
class RefusingPool final : public Executor {
 public:
  bool post(std::function<void()> /*helper*/) override {
    ++refused;
    return false;
  }
  int threads() const noexcept override { return 4; }
  int refused = 0;
};

/// Keeps every helper for the test to run later.
class DeferringPool final : public Executor {
 public:
  bool post(std::function<void()> helper) override {
    helpers.push_back(std::move(helper));
    return true;
  }
  int threads() const noexcept override { return 4; }
  std::vector<std::function<void()>> helpers;
};

TEST(Executor, BelowTheGrainRunsInlineInOrder) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for(5, kInlineGrain - 1, 4, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Executor, AboveTheGrainRunsEveryPieceOnce) {
  std::vector<std::atomic<int>> runs(64);
  parallel_for(runs.size(), kInlineGrain, 4,
               [&](std::size_t i) { runs[i].fetch_add(1); });
  for (const std::atomic<int>& r : runs) EXPECT_EQ(r.load(), 1);
}

TEST(Executor, FirstErrorIsRethrownAfterEveryClaimedPieceReturned) {
  std::atomic<int> active{0};
  EXPECT_THROW(parallel_for(16, kInlineGrain, 4,
                            [&](std::size_t i) {
                              active.fetch_add(1);
                              std::this_thread::sleep_for(
                                  std::chrono::milliseconds(2));
                              active.fetch_sub(1);
                              if (i == 3) throw std::runtime_error("piece");
                            }),
               std::runtime_error);
  EXPECT_EQ(active.load(), 0);
}

TEST(Executor, RefusedHelpersLeaveEveryPieceToTheCaller) {
  RefusingPool pool;
  const PoolThreadScope scope(pool);
  const auto caller = std::this_thread::get_id();
  std::vector<int> runs(8, 0);
  parallel_for(runs.size(), kInlineGrain, 4, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++runs[i];
  });
  EXPECT_EQ(runs, std::vector<int>(8, 1));
  EXPECT_EQ(pool.refused, 1);  // the first refusal stops the posting
}

TEST(Executor, HelperStartingAfterItsLoopFinishedDoesNothing) {
  DeferringPool pool;
  int calls = 0;
  {
    const PoolThreadScope scope(pool);
    parallel_for(8, kInlineGrain, 8, [&](std::size_t) { ++calls; });
  }
  EXPECT_EQ(calls, 8);
  // The caller counts as one of the pool's threads: three others.
  ASSERT_EQ(pool.helpers.size(), 3u);
  for (const auto& helper : pool.helpers) helper();
  EXPECT_EQ(calls, 8);
}

TEST(Executor, LoopsOnAPoolThreadPostBackToThatPool) {
  ThreadPool pool(3);
  std::mutex mutex;
  std::set<std::thread::id> ran_on;
  std::promise<void> done;
  ASSERT_TRUE(pool.post([&] {
    parallel_for(64, kInlineGrain, 8, [&](std::size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      const std::lock_guard lock(mutex);
      ran_on.insert(std::this_thread::get_id());
    });
    done.set_value();
  }));
  done.get_future().wait();
  EXPECT_EQ(ran_on.count(std::this_thread::get_id()), 0u);
  EXPECT_GE(ran_on.size(), 1u);
  EXPECT_LE(ran_on.size(), 3u);
}

// --- Every parallel labeler above the grain ---------------------------------

/// Side of the fan-out images: above the inline grain, so every phase
/// loop posts helpers.
constexpr Coord kSide = 320;
static_assert(std::int64_t{kSide} * kSide > kInlineGrain);

TEST(ExecutorFanOut, ParallelLabelersMatchTheirSequentialTwins) {
  const BinaryImage image = gen::uniform_noise(kSide, kSide, 0.45, 7);
  const LabelResponse want8 = AremspLabeler().label(image);
  const LabelResponse want4 = CclremspLabeler(Connectivity::Four).label(image);
  LabelerOptions options;
  options.threads = 4;
  for (const Algorithm algorithm :
       {Algorithm::Paremsp, Algorithm::ParemspTiled, Algorithm::ParemspRle}) {
    const auto labeler = make_labeler(algorithm, options);
    const std::string name(algorithm_info(algorithm).name);
    const LabelResponse got = labeler->run({.input = image});
    EXPECT_EQ(got.num_components, want8.num_components) << name;
    EXPECT_EQ(got.labels, want8.labels) << name;
    if (algorithm != Algorithm::Paremsp) {
      LabelRequest four{.input = image};
      four.connectivity = Connectivity::Four;
      EXPECT_EQ(labeler->run(four).labels, want4.labels) << name << " 4-conn";
    }
  }
}

TEST(ExecutorFanOut, ShardedRequestsMatchAremspWithAndWithoutStats) {
  const BinaryImage image = gen::landcover_like(kSide, kSide, 9);
  const LabelResponse want = AremspLabeler().run(testing::stats_request(image));
  engine::LabelingEngine eng({.workers = 4});
  LabelRequest request = testing::stats_request(image);
  request.shard = ShardOptions{.tile_rows = 64, .tile_cols = 64};
  const LabelResponse got = eng.submit(request).get();
  EXPECT_EQ(got.labels, want.labels);
  testing::expect_stats_identical(*got.stats, *want.stats, "sharded");
  request.outputs.stats = false;
  EXPECT_EQ(eng.submit(request).get().labels, want.labels);
}

TEST(ExecutorFanOut, EngineWorkersAreThePoolOfTheirLabelers) {
  // paremsp jobs on two workers: each job's loops post helpers to the
  // engine's own queue instead of starting threads.
  engine::LabelingEngine eng(
      {.workers = 2, .algorithm = Algorithm::Paremsp, .labeler = {}});
  std::vector<BinaryImage> images;
  std::vector<std::future<LabelResponse>> futures;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    images.push_back(gen::uniform_noise(kSide, kSide, 0.5, 20 + seed));
  }
  for (const BinaryImage& image : images) {
    futures.push_back(eng.submit({.input = image}));
  }
  const AremspLabeler reference;
  for (std::size_t i = 0; i < images.size(); ++i) {
    const LabelResponse got = futures[i].get();
    EXPECT_EQ(got.labels, reference.label(images[i]).labels) << i;
  }
}

}  // namespace
}  // namespace paremsp
