// PAREMSP-specific tests: thread-count invariance (bit-identical output),
// merge-backend equivalence, chunk-boundary adversaries, and configuration
// validation. These are the properties §IV of the paper depends on.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>

#include "analysis/validation.hpp"
#include "core/aremsp.hpp"
#include "core/paremsp.hpp"
#include "core/registry.hpp"
#include "core/request.hpp"
#include "core/rle_labelers.hpp"
#include "engine/engine.hpp"
#include "image/ascii.hpp"
#include "image/generators.hpp"
#include "fixtures.hpp"

namespace paremsp {
namespace {

ParemspLabeler with(int threads,
                    MergeBackend backend = MergeBackend::LockedRem,
                    int lock_bits = 12) {
  return ParemspLabeler(ParemspConfig{threads, backend, lock_bits});
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

// --- Merge backends --------------------------------------------------------------

class ParemspBackend : public ::testing::TestWithParam<MergeBackend> {};

TEST_P(ParemspBackend, AgreesWithSequentialOnStressImages) {
  const MergeBackend backend = GetParam();
  const AremspLabeler seq;
  // Comb teeth cross every boundary: maximum merge traffic.
  for (const int threads : {2, 4, 8}) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      const auto image = gen::landcover_like(96, 48, seed, 2);
      SCOPED_TRACE("threads=" + std::to_string(threads) + " seed=" +
                   std::to_string(seed));
      EXPECT_EQ(with(threads, backend).label(image).labels,
                seq.label(image).labels);
    }
    const auto comb = gen::stripes(96, 48, 2, 1, /*vertical=*/true);
    EXPECT_EQ(with(threads, backend).label(comb).labels,
              seq.label(comb).labels);
  }
}

TEST_P(ParemspBackend, TinyLockPoolStillCorrect) {
  // One-lock pool (bits=0) serializes every root update but must stay
  // correct — catches accidental lock-identity assumptions.
  const auto image = gen::uniform_noise(80, 40, 0.55, 12);
  const auto seq = AremspLabeler().label(image);
  const auto got = with(8, GetParam(), /*lock_bits=*/0).label(image);
  EXPECT_EQ(got.labels, seq.labels);
}

INSTANTIATE_TEST_SUITE_P(Backends, ParemspBackend,
                         ::testing::Values(MergeBackend::LockedRem,
                                           MergeBackend::CasRem,
                                           MergeBackend::Sequential),
                         [](const auto& pinfo) {
                           return std::string(to_string(pinfo.param));
                         });

// --- CAS find × splice policy matrix ----------------------------------------
//
// Every combination must leave the CasRem merger bit-identical to
// sequential AREMSP — the policies only change which compression hints
// are written, never which component minimum survives as root
// (DESIGN.md §11). Checked on the row-banded and the 2-D tiled labeler.

class ParemspCasPolicy
    : public ::testing::TestWithParam<std::pair<uf::CasFind, uf::CasSplice>> {
};

TEST_P(ParemspCasPolicy, BandedLabelerBitIdenticalToSequential) {
  const auto [find, splice] = GetParam();
  const AremspLabeler seq;
  for (const int threads : {2, 4, 8}) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      const auto image = gen::landcover_like(96, 48, seed, 2);
      SCOPED_TRACE("threads=" + std::to_string(threads) + " seed=" +
                   std::to_string(seed));
      const ParemspLabeler par(ParemspConfig{.threads = threads,
                                             .merge_backend =
                                                 MergeBackend::CasRem,
                                             .cas_find = find,
                                             .cas_splice = splice});
      EXPECT_EQ(par.label(image).labels, seq.label(image).labels);
    }
  }
}

TEST_P(ParemspCasPolicy, TiledLabelerBitIdenticalToSequential) {
  const auto [find, splice] = GetParam();
  const AremspLabeler seq;
  // Small tiles maximize seam-merge traffic through the policy under test.
  const auto image = gen::uniform_noise(96, 96, 0.55, 77);
  const TiledParemspLabeler tiled(
      RleConfig{.threads = 4,
                .tile_rows = 16,
                .tile_cols = 16,
                .merge_backend = MergeBackend::CasRem,
                .cas_find = find,
                .cas_splice = splice});
  EXPECT_EQ(tiled.label(image).labels, seq.label(image).labels);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ParemspCasPolicy,
    ::testing::Values(
        std::pair{uf::CasFind::Naive, uf::CasSplice::Atomic},
        std::pair{uf::CasFind::Naive, uf::CasSplice::Simple},
        std::pair{uf::CasFind::Split, uf::CasSplice::Atomic},
        std::pair{uf::CasFind::Split, uf::CasSplice::Simple},
        std::pair{uf::CasFind::Halve, uf::CasSplice::Atomic},
        std::pair{uf::CasFind::Halve, uf::CasSplice::Simple}),
    [](const auto& pinfo) {
      return std::string(uf::to_string(pinfo.param.first)) + "_" +
             uf::to_string(pinfo.param.second);
    });

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
  EXPECT_THROW(
      ParemspLabeler(ParemspConfig{2, MergeBackend::LockedRem, 30}),
      PreconditionError);
  EXPECT_THROW(
      ParemspLabeler(ParemspConfig{2, MergeBackend::LockedRem, -1}),
      PreconditionError);
}

// Every executor that takes a merge config validates it through the same
// SeamMerger, so an out-of-range lock pool is rejected synchronously with
// the same PreconditionError on every path — and for every backend, not
// only the one that builds the pool.
struct MergeExecutor {
  const char* name;
  void (*build)(MergeBackend backend, int lock_bits);
};

void build_through_registry(Algorithm algorithm, MergeBackend backend,
                            int bits) {
  (void)make_labeler(
      algorithm, LabelerOptions{.merge_backend = backend, .lock_bits = bits});
}

const MergeExecutor kMergeExecutors[] = {
    {"paremsp",
     [](MergeBackend backend, int bits) {
       (void)ParemspLabeler(
           ParemspConfig{.merge_backend = backend, .lock_bits = bits});
     }},
    {"paremsp_registry",
     [](MergeBackend backend, int bits) {
       build_through_registry(Algorithm::Paremsp, backend, bits);
     }},
    {"paremsp_rle",
     [](MergeBackend backend, int bits) {
       (void)ParemspRleLabeler(
           RleConfig{.merge_backend = backend, .lock_bits = bits});
     }},
    {"paremsp_rle_registry",
     [](MergeBackend backend, int bits) {
       build_through_registry(Algorithm::ParemspRle, backend, bits);
     }},
    {"paremsp2d",
     [](MergeBackend backend, int bits) {
       (void)TiledParemspLabeler(
           RleConfig{.merge_backend = backend, .lock_bits = bits});
     }},
    {"paremsp2d_registry",
     [](MergeBackend backend, int bits) {
       build_through_registry(Algorithm::ParemspTiled, backend, bits);
     }},
    {"sharded_submit",
     [](MergeBackend backend, int bits) {
       engine::LabelingEngine eng({.workers = 1});
       const BinaryImage image(8, 8, 1);
       LabelRequest request;
       request.input = image;
       request.shard = ShardOptions{.tile_rows = 4,
                                    .tile_cols = 4,
                                    .merge_backend = backend,
                                    .lock_bits = bits};
       (void)eng.submit(std::move(request)).get();
     }},
};

class MergeConfigLockBits
    : public ::testing::TestWithParam<std::tuple<MergeExecutor, int>> {};

TEST_P(MergeConfigLockBits, RejectsOutOfRangeLockBits) {
  const auto& [executor, bits] = GetParam();
  for (const MergeBackend backend :
       {MergeBackend::LockedRem, MergeBackend::CasRem,
        MergeBackend::Sequential}) {
    SCOPED_TRACE(to_string(backend));
    EXPECT_THROW(executor.build(backend, bits), PreconditionError);
    // Control: the same executor accepts the default pool size.
    EXPECT_NO_THROW(executor.build(backend, uf::LockPool::kDefaultBits));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Executors, MergeConfigLockBits,
    ::testing::Combine(::testing::ValuesIn(kMergeExecutors),
                       ::testing::Values(-1, uf::LockPool::kMaxBits + 1)),
    [](const ::testing::TestParamInfo<MergeConfigLockBits::ParamType>& info) {
      const int bits = std::get<1>(info.param);
      return std::string(std::get<0>(info.param).name) + "_bits" +
             (bits < 0 ? "m" + std::to_string(-bits) : std::to_string(bits));
    });

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
