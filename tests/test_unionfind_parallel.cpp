// Concurrency tests for the parallel REM union (paper Algorithm 8, the
// seam merge): many threads hammer the same parent array; the final
// partition must equal what sequential REM produces, and the threads'
// joins must add up to the trees eliminated, under every schedule and
// lock-stripe configuration, down to one stripe (maximal contention).
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/executor.hpp"
#include "common/prng.hpp"
#include "unionfind/lock_pool.hpp"
#include "unionfind/parallel_rem.hpp"
#include "unionfind/rem.hpp"

namespace paremsp::uf {
namespace {

using Edge = std::pair<Label, Label>;

std::vector<Edge> random_edges(Label n, int count, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    edges.emplace_back(
        static_cast<Label>(rng.next_below(static_cast<std::uint64_t>(n))),
        static_cast<Label>(rng.next_below(static_cast<std::uint64_t>(n))));
  }
  return edges;
}

std::vector<Label> sequential_roots(Label n, const std::vector<Edge>& edges) {
  std::vector<Label> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  for (const auto& [x, y] : edges) rem_unite(p.data(), x, y);
  std::vector<Label> roots(static_cast<std::size_t>(n));
  for (Label i = 0; i < n; ++i) roots[static_cast<std::size_t>(i)] =
      rem_find(p.data(), i);
  return roots;
}

/// Trees left by sequential REM: a root is its own representative.
std::uint64_t component_count(const std::vector<Label>& roots) {
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < roots.size(); ++i) {
    if (roots[i] == static_cast<Label>(i)) ++count;
  }
  return count;
}

/// Parameters are (tag, threads, lock bits); bits = 0 is one stripe shared
/// by every root. The tag is a constant: gtest prints a parameter it has no
/// printer for as raw bytes, ctest names carry that print, and the tag's
/// four zero bytes keep each instance's name from when the first slot
/// chose between two unions.
struct Tag {
  std::int32_t zero = 0;
};
using MergeParam = std::tuple<Tag, int, int>;

std::string merge_param_name(
    const ::testing::TestParamInfo<MergeParam>& pinfo) {
  return "locked_t" + std::to_string(std::get<1>(pinfo.param)) + "_b" +
         std::to_string(std::get<2>(pinfo.param));
}

const auto kMergeParams =
    ::testing::Combine(::testing::Values(Tag{}), ::testing::Values(2, 4, 8),
                       ::testing::Values(0, 2, 12));

std::uint64_t total_joins(const std::vector<UniteStats>& stats) {
  std::uint64_t joins = 0;
  for (const UniteStats& s : stats) joins += s.joins;
  return joins;
}

/// Runs every edge through locked_unite and returns the joins summed over
/// the threads' own UniteStats.
std::uint64_t run_parallel(Label n, const std::vector<Edge>& edges,
                           std::vector<Label>& p, int threads, int bits) {
  p.resize(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  LockPool locks(bits);
  std::vector<UniteStats> stats(static_cast<std::size_t>(threads));
  // One contiguous edge range per thread, through the labelers' executor;
  // kInlineGrain as the work estimate makes it fan out however few edges
  // there are.
  const std::size_t m = edges.size();
  const auto pieces = static_cast<std::size_t>(threads);
  parallel_for(pieces, kInlineGrain, threads, [&](std::size_t t) {
    const std::size_t end = m * (t + 1) / pieces;
    for (std::size_t i = m * t / pieces; i < end; ++i) {
      locked_unite(p.data(), locks, edges[i].first, edges[i].second,
                   &stats[t]);
    }
  });
  return total_joins(stats);
}

class ParallelMerge : public ::testing::TestWithParam<MergeParam> {};

TEST_P(ParallelMerge, PartitionMatchesSequentialRem) {
  const auto [tag, threads, bits] = GetParam();
  constexpr Label n = 2000;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto edges = random_edges(n, 6000, seed);
    const auto expected = sequential_roots(n, edges);

    std::vector<Label> p;
    const std::uint64_t joins = run_parallel(n, edges, p, threads, bits);
    for (Label i = 0; i < n; ++i) {
      ASSERT_EQ(rem_find(p.data(), i), expected[static_cast<std::size_t>(i)])
          << "element " << i << " seed " << seed;
    }
    EXPECT_EQ(joins, static_cast<std::uint64_t>(n) - component_count(expected))
        << "seed " << seed;
  }
}

TEST_P(ParallelMerge, HighContentionSingleComponent) {
  const auto [tag, threads, bits] = GetParam();
  // Every edge touches a hub: worst case for root-lock contention.
  constexpr Label n = 1024;
  std::vector<Edge> edges;
  for (Label i = 1; i < n; ++i) edges.emplace_back(0, i);
  for (Label i = 1; i < n; ++i) edges.emplace_back(i, n - i);

  std::vector<Label> p;
  const std::uint64_t joins = run_parallel(n, edges, p, threads, bits);
  for (Label i = 0; i < n; ++i) {
    ASSERT_EQ(rem_find(p.data(), i), 0);
  }
  EXPECT_EQ(joins, static_cast<std::uint64_t>(n - 1));
}

TEST_P(ParallelMerge, ChainWorkload) {
  const auto [tag, threads, bits] = GetParam();
  // Long chains maximize splicing activity.
  constexpr Label n = 4096;
  std::vector<Edge> edges;
  for (Label i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);

  std::vector<Label> p;
  run_parallel(n, edges, p, threads, bits);
  for (Label i = 0; i < n; ++i) {
    ASSERT_EQ(rem_find(p.data(), i), 0);
  }
}

TEST_P(ParallelMerge, ParentsStayBelowIndices) {
  const auto [tag, threads, bits] = GetParam();
  constexpr Label n = 3000;
  const auto edges = random_edges(n, 9000, 0xFEED);
  std::vector<Label> p;
  run_parallel(n, edges, p, threads, bits);
  for (Label i = 0; i < n; ++i) {
    ASSERT_LE(p[static_cast<std::size_t>(i)], i) << "REM invariant broken";
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ParallelMerge, kMergeParams,
                         merge_param_name);

// --- std::thread variants (ThreadSanitizer coverage) -----------------------
//
// The tests above drive the merger through the labelers' executor; these
// drive it from plain std::thread, interleaving the edges instead of
// splitting them into ranges.

std::uint64_t run_parallel_std_thread(Label n, const std::vector<Edge>& edges,
                                      std::vector<Label>& p, int threads,
                                      int bits) {
  p.resize(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  LockPool locks(bits);
  std::vector<UniteStats> stats(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < edges.size();
           i += static_cast<std::size_t>(threads)) {
        locked_unite(p.data(), locks, edges[i].first, edges[i].second,
                     &stats[static_cast<std::size_t>(t)]);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return total_joins(stats);
}

class ParallelMergeStdThread : public ::testing::TestWithParam<MergeParam> {};

TEST_P(ParallelMergeStdThread, PartitionMatchesSequentialRem) {
  const auto [tag, threads, bits] = GetParam();
  constexpr Label n = 2000;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto edges = random_edges(n, 6000, seed);
    const auto expected = sequential_roots(n, edges);
    std::vector<Label> p;
    const std::uint64_t joins =
        run_parallel_std_thread(n, edges, p, threads, bits);
    for (Label i = 0; i < n; ++i) {
      ASSERT_EQ(rem_find(p.data(), i), expected[static_cast<std::size_t>(i)])
          << "element " << i << " seed " << seed;
    }
    EXPECT_EQ(joins, static_cast<std::uint64_t>(n) - component_count(expected))
        << "seed " << seed;
  }
}

TEST_P(ParallelMergeStdThread, HighContentionSingleComponent) {
  const auto [tag, threads, bits] = GetParam();
  constexpr Label n = 1024;
  std::vector<Edge> edges;
  for (Label i = 1; i < n; ++i) edges.emplace_back(0, i);
  for (Label i = 1; i < n; ++i) edges.emplace_back(i, n - i);
  std::vector<Label> p;
  const std::uint64_t joins =
      run_parallel_std_thread(n, edges, p, threads, bits);
  for (Label i = 0; i < n; ++i) {
    ASSERT_EQ(rem_find(p.data(), i), 0);
  }
  EXPECT_EQ(joins, static_cast<std::uint64_t>(n - 1));
}

INSTANTIATE_TEST_SUITE_P(Backends, ParallelMergeStdThread, kMergeParams,
                         merge_param_name);

TEST(LockPool, StripesCoverAllIndices) {
  LockPool pool(4);
  EXPECT_EQ(pool.stripe_count(), 16u);
  // Every index maps to some lock; adjacent indices spread out.
  for (Label i = 0; i < 1000; ++i) {
    EXPECT_NE(pool.lock_for(i), nullptr);
  }
}

TEST(LockPool, GuardIsReentrantAcrossDifferentStripes) {
  LockPool pool(8);
  {
    LockPool::Guard g1(pool, 1);
    // A second guard on a (very likely) different stripe must not deadlock.
    LockPool::Guard g2(pool, 7777);
  }
  SUCCEED();
}

TEST(LockPool, RejectsOutOfRangeBits) {
  EXPECT_THROW(LockPool(-1), PreconditionError);
  EXPECT_THROW(LockPool(30), PreconditionError);
}

}  // namespace
}  // namespace paremsp::uf
