// PAREMSP-specific tests: thread-count invariance (bit-identical output),
// seam-merge stress, chunk-boundary adversaries, and configuration
// validation. These are the properties §IV of the paper depends on.
#include <gtest/gtest.h>

#include <string>

#include "analysis/validation.hpp"
#include "core/aremsp.hpp"
#include "core/paremsp.hpp"
#include "image/ascii.hpp"
#include "image/generators.hpp"
#include "fixtures.hpp"

namespace paremsp {
namespace {

ParemspLabeler with(int threads) {
  return ParemspLabeler(ParemspConfig{threads});
}

// --- Bit-identical output across thread counts ---------------------------------

class ParemspThreads : public ::testing::TestWithParam<int> {};

TEST_P(ParemspThreads, MatchesSequentialAremspExactly) {
  const int threads = GetParam();
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto image = gen::landcover_like(75, 61, seed);
    const auto seq = AremspLabeler().label(image);
    const auto par = with(threads).label(image);
    EXPECT_EQ(par.num_components, seq.num_components) << "seed " << seed;
    EXPECT_EQ(par.labels, seq.labels) << "seed " << seed;
  }
}

TEST_P(ParemspThreads, AllWorkloadShapes) {
  const int threads = GetParam();
  const AremspLabeler seq;
  const auto check = [&](const BinaryImage& image, const std::string& what) {
    SCOPED_TRACE(what);
    const auto expected = seq.label(image);
    const auto got = with(threads).label(image);
    EXPECT_EQ(got.labels, expected.labels);
    EXPECT_EQ(got.num_components, expected.num_components);
    const auto v = analysis::validate_labeling(image, got.labels,
                                               got.num_components);
    EXPECT_TRUE(v.ok) << v.error;
  };
  check(gen::uniform_noise(64, 64, 0.5, 1), "noise");
  check(gen::spiral(64, 64, 2, 3), "spiral");
  check(gen::checkerboard(63, 65, 1), "checkerboard");
  check(gen::maze(63, 65, 9), "maze");
  check(gen::stripes(64, 64, 2, 1, false), "hstripes-period2");
  check(gen::stripes(64, 64, 2, 1, true), "vstripes-period2");
  check(BinaryImage(64, 64, 1), "all fg");
  check(BinaryImage(64, 64, 0), "all bg");
}

TEST_P(ParemspThreads, OddAndTinyRowCounts) {
  const int threads = GetParam();
  const AremspLabeler seq;
  for (const Coord rows : {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17}) {
    const auto image =
        gen::uniform_noise(rows, 33, 0.5, static_cast<std::uint64_t>(rows));
    SCOPED_TRACE("rows=" + std::to_string(rows));
    EXPECT_EQ(with(threads).label(image).labels, seq.label(image).labels);
  }
}

TEST_P(ParemspThreads, FixturesMatchSequential) {
  const int threads = GetParam();
  const AremspLabeler seq;
  for (const auto& fx : testing::fixtures()) {
    SCOPED_TRACE(fx.name);
    const auto got = with(threads).label(fx.image);
    EXPECT_EQ(got.labels, seq.label(fx.image).labels);
    EXPECT_EQ(got.num_components, fx.components8);
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParemspThreads,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13),
                         [](const auto& pinfo) {
                           return "t" + std::to_string(pinfo.param);
                         });

// --- Seam merge ------------------------------------------------------------------

TEST(ParemspMerge, AgreesWithSequentialOnStressImages) {
  const AremspLabeler seq;
  // Comb teeth cross every boundary: maximum merge traffic.
  for (const int threads : {2, 4, 8}) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      const auto image = gen::landcover_like(96, 48, seed, 2);
      SCOPED_TRACE("threads=" + std::to_string(threads) + " seed=" +
                   std::to_string(seed));
      EXPECT_EQ(with(threads).label(image).labels, seq.label(image).labels);
    }
    const auto comb = gen::stripes(96, 48, 2, 1, /*vertical=*/true);
    EXPECT_EQ(with(threads).label(comb).labels, seq.label(comb).labels);
  }
}

// --- Chunk-boundary adversaries ----------------------------------------------------

TEST(ParemspBoundaries, ComponentsSpanningEveryBoundary) {
  // Vertical bars: every component crosses every chunk boundary; plus a
  // U-shape that is split into two chunk-local components and re-merged.
  const auto bars = gen::stripes(64, 32, 3, 1, /*vertical=*/true);
  const auto seq = AremspLabeler().label(bars);
  for (const int threads : {2, 3, 4, 6, 8, 16, 32}) {
    EXPECT_EQ(with(threads).label(bars).labels, seq.labels)
        << "threads=" << threads;
  }
}

TEST(ParemspBoundaries, ArchRejoinsAcrossChunks) {
  // 40 rows tall arch: legs meet only in the top rows; with >= 2 chunks
  // the legs are separate provisional components inside lower chunks.
  BinaryImage arch(40, 20, 0);
  for (Coord c = 0; c < 20; ++c) arch(0, c) = 1;
  for (Coord r = 0; r < 40; ++r) {
    arch(r, 0) = 1;
    arch(r, 19) = 1;
  }
  const auto seq = AremspLabeler().label(arch);
  ASSERT_EQ(seq.num_components, 1);
  for (const int threads : {2, 4, 8}) {
    const auto got = with(threads).label(arch);
    EXPECT_EQ(got.num_components, 1) << "threads=" << threads;
    EXPECT_EQ(got.labels, seq.labels);
  }
}

TEST(ParemspBoundaries, DiagonalOnlyBoundaryContacts) {
  // Diagonal line: consecutive pixels touch only corner-to-corner, so each
  // boundary merge comes from the a/c neighbors, not b.
  BinaryImage diag(48, 48, 0);
  for (Coord i = 0; i < 48; ++i) diag(i, i) = 1;
  for (const int threads : {2, 4, 8}) {
    const auto got = with(threads).label(diag);
    EXPECT_EQ(got.num_components, 1) << "threads=" << threads;
  }
  // Anti-diagonal exercises the c-neighbor (col+1) merge path.
  BinaryImage anti(48, 48, 0);
  for (Coord i = 0; i < 48; ++i) anti(i, 47 - i) = 1;
  for (const int threads : {2, 4, 8}) {
    EXPECT_EQ(with(threads).label(anti).num_components, 1);
  }
}

TEST(ParemspBoundaries, MoreThreadsThanRowPairs) {
  const auto image = gen::uniform_noise(6, 40, 0.5, 77);  // 3 row pairs
  const auto seq = AremspLabeler().label(image);
  for (const int threads : {4, 8, 64}) {
    EXPECT_EQ(with(threads).label(image).labels, seq.labels)
        << "threads=" << threads;
  }
}

// --- Configuration and metadata ------------------------------------------------------

TEST(ParemspConfigTest, RejectsInvalidConfig) {
  EXPECT_THROW(ParemspLabeler(ParemspConfig{-1}), PreconditionError);
}

TEST(ParemspConfigTest, ReportsIdentity) {
  const ParemspLabeler labeler(ParemspConfig{4});
  EXPECT_EQ(labeler.name(), "paremsp");
  EXPECT_TRUE(labeler.is_parallel());
  EXPECT_EQ(labeler.config().threads, 4);
}

TEST(ParemspTimings, MergePhaseOnlyWhenMultipleChunks) {
  const auto image = gen::landcover_like(128, 64, 5);
  const auto one = with(1).label(image);
  const auto four = with(4).label(image);
  EXPECT_EQ(one.labels, four.labels);
  EXPECT_GE(four.timings.merge_ms, 0.0);
  EXPECT_GT(four.timings.total_ms, 0.0);
}

}  // namespace
}  // namespace paremsp
