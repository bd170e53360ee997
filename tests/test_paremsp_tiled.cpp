// Tests for the 2-D tiled PAREMSP extension (paremsp2d, run-based):
// bit-identical output to sequential AREMSP (8-conn) and CCLREMSP (4-conn)
// on adversarial tile grids (the canonical renumber in
// core/tiled_phases.cpp makes every grid geometry exact, not merely
// partition-equivalent), determinism, degenerate tile shapes down to
// single-pixel tiles, and the band-parallel renumber (BandRenumber) driven
// from plain std::threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "analysis/validation.hpp"
#include "core/aremsp.hpp"
#include "core/cclremsp.hpp"
#include "core/rle_labelers.hpp"
#include "core/tiled_phases.hpp"
#include "fixtures.hpp"
#include "image/generators.hpp"
#include "unionfind/rem.hpp"

namespace paremsp {
namespace {

TiledParemspLabeler tiled(Coord tile_rows, Coord tile_cols, int threads = 3,
                          Connectivity connectivity = Connectivity::Eight) {
  return TiledParemspLabeler(RleConfig{.threads = threads,
                                       .tile_rows = tile_rows,
                                       .tile_cols = tile_cols},
                             connectivity);
}

/// 8-conn against AREMSP; the 4-conn twin of the same grid against
/// CCLREMSP.
void expect_matches_sequential(const TiledParemspLabeler& labeler,
                               const BinaryImage& image,
                               const std::string& what) {
  SCOPED_TRACE(what);
  const auto expected = AremspLabeler().label(image);
  const auto got = labeler.label(image);
  EXPECT_EQ(got.num_components, expected.num_components);
  EXPECT_EQ(got.labels, expected.labels);  // bit-identical, any grid
  const auto v = analysis::validate_labeling(image, got.labels,
                                             got.num_components);
  EXPECT_TRUE(v.ok) << v.error;

  const RleConfig& config = labeler.config();
  const auto four = tiled(config.tile_rows, config.tile_cols, config.threads,
                          Connectivity::Four)
                        .label(image);
  const auto expected4 = CclremspLabeler(Connectivity::Four).label(image);
  EXPECT_EQ(four.num_components, expected4.num_components);
  EXPECT_EQ(four.labels, expected4.labels);
}

class TiledGrid
    : public ::testing::TestWithParam<std::pair<Coord, Coord>> {};

TEST_P(TiledGrid, BitIdenticalToAremsp) {
  const auto [tr, tc] = GetParam();
  const auto labeler = tiled(tr, tc);
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    expect_matches_sequential(labeler, gen::landcover_like(70, 90, seed),
                              "landcover " + std::to_string(seed));
  }
  expect_matches_sequential(labeler, gen::spiral(70, 90, 2, 3), "spiral");
  expect_matches_sequential(labeler, gen::checkerboard(70, 90, 1), "checker");
  expect_matches_sequential(labeler, gen::stripes(70, 90, 2, 1, true),
                            "vbars");
  expect_matches_sequential(labeler, gen::stripes(70, 90, 2, 1, false),
                            "hbars");
  expect_matches_sequential(labeler, BinaryImage(70, 90, 1), "all fg");
  expect_matches_sequential(labeler, gen::uniform_noise(70, 90, 0.5, 5),
                            "noise");
  expect_matches_sequential(labeler, testing::band_renumber_image(),
                            "band fixture");
}

TEST_P(TiledGrid, Fixtures) {
  const auto [tr, tc] = GetParam();
  const auto labeler = tiled(tr, tc);
  for (const auto& fx : testing::fixtures()) {
    SCOPED_TRACE(fx.name);
    EXPECT_EQ(labeler.label(fx.image).num_components, fx.components8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    GridSizes, TiledGrid,
    ::testing::Values(std::pair<Coord, Coord>{1, 1},    // single-pixel tiles
                      std::pair<Coord, Coord>{2, 2},
                      std::pair<Coord, Coord>{3, 5},    // odd x odd
                      std::pair<Coord, Coord>{8, 8},
                      std::pair<Coord, Coord>{16, 32},
                      std::pair<Coord, Coord>{32, 16},
                      std::pair<Coord, Coord>{64, 4},   // column strips
                      std::pair<Coord, Coord>{4, 64},   // row strips
                      std::pair<Coord, Coord>{1024, 1024}),  // single tile
    [](const auto& pinfo) {
      return "t" + std::to_string(pinfo.param.first) + "x" +
             std::to_string(pinfo.param.second);
    });

TEST(TiledParemsp, SingleTileIsBitIdenticalToAremsp) {
  const auto image = gen::misc_like(60, 60, 8);
  const auto expected = AremspLabeler().label(image);
  const auto got = tiled(1024, 1024, 4).label(image);
  EXPECT_EQ(got.labels, expected.labels);
}

TEST(TiledParemsp, DeterministicAcrossThreadCounts) {
  const auto image = gen::landcover_like(96, 80, 3);
  const auto reference = tiled(16, 16, 1).label(image);
  for (const int threads : {2, 4, 8}) {
    const auto got = tiled(16, 16, threads).label(image);
    EXPECT_EQ(got.labels, reference.labels) << "threads=" << threads;
  }
}

TEST(TiledParemsp, CornerOnlyContacts) {
  // Diagonal line hits every tile corner of an 8x8 grid: all merges are
  // corner-diagonal, the hardest boundary case.
  BinaryImage diag(64, 64, 0);
  for (Coord i = 0; i < 64; ++i) diag(i, i) = 1;
  EXPECT_EQ(tiled(8, 8).label(diag).num_components, 1);
  BinaryImage anti(64, 64, 0);
  for (Coord i = 0; i < 64; ++i) anti(i, 63 - i) = 1;
  EXPECT_EQ(tiled(8, 8).label(anti).num_components, 1);
}

TEST(TiledParemsp, OddSizedEdgesAndTinyImages) {
  const auto labeler = tiled(8, 8);
  for (const auto [rows, cols] :
       {std::pair<Coord, Coord>{9, 13}, std::pair<Coord, Coord>{1, 50},
        std::pair<Coord, Coord>{50, 1}, std::pair<Coord, Coord>{3, 3},
        std::pair<Coord, Coord>{17, 23}}) {
    const auto image = gen::uniform_noise(
        rows, cols, 0.5, static_cast<std::uint64_t>(rows * 100 + cols));
    expect_matches_sequential(
        labeler, image, std::to_string(rows) + "x" + std::to_string(cols));
  }
  EXPECT_EQ(labeler.label(BinaryImage()).num_components, 0);
}

TEST(TiledParemsp, BandRenumberFixtureAcrossBandShapes) {
  // Odd tile heights pair tile rows into one 8-conn band; 64 threads
  // outnumber every grid's bands; 48- and 1024-row tiles make one band.
  const BinaryImage image = testing::band_renumber_image();
  const auto want = AremspLabeler().label(image);
  // The fixture's point: C (first visited at row 8) numbers before X
  // (row 10) although X holds the smaller label of their shared tile.
  ASSERT_LT(want.labels(8, 12), want.labels(10, 2));
  for (const Coord tr : {1, 3, 5, 7, 8, 48, 1024}) {
    for (const Coord tc : {3, 8, 1024}) {
      for (const int threads : {1, 2, 64}) {
        expect_matches_sequential(
            tiled(tr, tc, threads), image,
            "tiles " + std::to_string(tr) + "x" + std::to_string(tc) +
                " threads " + std::to_string(threads));
      }
    }
  }
  // The fixture is small enough for every phase loop to run inline; this
  // noise is above the executor's inline grain, so the band loops fan out.
  const BinaryImage noise = gen::uniform_noise(384, 384, 0.5, 41);
  ASSERT_GE(tiled(8, 64).label(noise).timings.counters.runs_extracted,
            1U << 14);
  for (const Coord tr : {3, 8}) {
    for (const int threads : {4, 64}) {
      expect_matches_sequential(
          tiled(tr, 64, threads), noise,
          "noise tiles " + std::to_string(tr) + "x64 threads " +
              std::to_string(threads));
    }
  }
}

TEST(TiledParemsp, ConfigValidation) {
  EXPECT_THROW(TiledParemspLabeler(RleConfig{.threads = -1}),
               PreconditionError);
  EXPECT_THROW(TiledParemspLabeler(RleConfig{.tile_rows = 0}),
               PreconditionError);
  EXPECT_THROW(TiledParemspLabeler(RleConfig{.tile_cols = 0}),
               PreconditionError);
  // Odd tile heights are legal: the canonical renumber makes any grid
  // geometry bit-identical, so no even-rounding is needed.
  const TiledParemspLabeler ok(RleConfig{.tile_rows = 3});
  EXPECT_EQ(ok.config().tile_rows, 3);
  EXPECT_EQ(ok.name(), "paremsp2d");
  EXPECT_TRUE(ok.is_parallel());
}

TEST(TiledParemsp, ClippedTilesWithLoneLastRowMatchSequential) {
  // Odd height: the last tile row (and the last unit of every tile in it)
  // is one row. 8x16 tiles make 2-D bands, 6x80 full-width ones.
  const BinaryImage image = gen::uniform_noise(97, 80, 0.5, 97);
  for (const auto& [tr, tc] :
       std::vector<std::pair<Coord, Coord>>{{8, 16}, {6, 80}}) {
    for (const int threads : {1, 4, 64}) {
      expect_matches_sequential(
          tiled(tr, tc, threads), image,
          "tiles " + std::to_string(tr) + "x" + std::to_string(tc) +
              " threads " + std::to_string(threads));
    }
  }
}

TEST(TiledPhases, TileGridRefusesLabelOverflow) {
  // 2.5 Gpx: pixel-count bases would pass 2^31. The grid is refused
  // before any tile or pixel is allocated.
  EXPECT_THROW(static_cast<void>(make_tile_grid(50000, 50000, 512, 512)),
               PreconditionError);
  EXPECT_THROW(static_cast<void>(make_tile_grid(46341, 46341, 512, 512)),
               PreconditionError);
  const std::vector<TileSpec> ok = make_tile_grid(46340, 46340, 4096, 4096);
  EXPECT_EQ(ok.back().base + ok.back().pixels(),
            std::int64_t{46340} * 46340);
}

TEST(TiledPhases, RewriteStaysInsideTheTileRectangle) {
  // An interior tile whose rows hold runs of length 1-10 at every offset,
  // alone or repeated with gaps of 1-10, many touching col_end. The plane
  // around the tile holds a sentinel that no rewrite may touch, also
  // through a strided ROI view of a larger plane.
  constexpr Coord kWidth = 24;
  constexpr Coord c0 = 5;
  constexpr Coord c1 = c0 + kWidth;
  constexpr Label kSentinel = -7;
  std::vector<std::vector<std::uint8_t>> rows;
  for (Coord len = 1; len <= 10; ++len) {
    for (Coord offset = 0; offset + len <= kWidth; ++offset) {
      std::vector<std::uint8_t> row(kWidth, 0);
      std::fill_n(row.begin() + offset, len, std::uint8_t{1});
      rows.push_back(row);
    }
    for (Coord gap = 1; gap <= 10; ++gap) {
      for (const Coord phase : {Coord{0}, gap}) {
        std::vector<std::uint8_t> row(kWidth, 0);
        for (Coord c = phase; c < kWidth; c += len + gap) {
          std::fill_n(row.begin() + c, std::min(len, kWidth - c),
                      std::uint8_t{1});
        }
        rows.push_back(row);
      }
    }
  }
  const Coord r0 = 3;
  const Coord r1 = r0 + static_cast<Coord>(rows.size());
  BinaryImage image(r1 + 3, c1 + 12, 0);
  for (Coord r = r0; r < r1; ++r) {
    for (Coord c = 0; c < kWidth; ++c) {
      image(r, c0 + c) = rows[static_cast<std::size_t>(r - r0)]
                             [static_cast<std::size_t>(c)];
    }
  }
  const TileSpec tile{r0, r1, c0, c1, 0, 0};
  RunBuffer runs;
  runs.extract(image, r0, r1, c0, c1);
  std::vector<Label> parents{0};
  for (Coord r = r0; r < r1; ++r) {
    for (paremsp::Run& run : runs.row(r)) {
      run.label = static_cast<Label>(parents.size());
      parents.push_back(1000 + run.label);
    }
  }
  const auto expected = [&](Coord r, Coord c) {
    if (r < r0 || r >= r1 || c < c0 || c >= c1) return kSentinel;
    for (const paremsp::Run& run : runs.row(r)) {
      if (c >= run.col_begin && c < run.col_end) {
        return parents[static_cast<std::size_t>(run.label)];
      }
    }
    return Label{0};
  };

  LabelImage plane(image.rows(), image.cols(), kSentinel);
  rewrite_run_labels(runs, parents, tile, plane);
  for (Coord r = 0; r < plane.rows(); ++r) {
    for (Coord c = 0; c < plane.cols(); ++c) {
      ASSERT_EQ(plane(r, c), expected(r, c)) << r << "," << c;
    }
  }

  constexpr Coord kRoiRow = 2;
  constexpr Coord kRoiCol = 4;
  LabelImage big(image.rows() + 5, image.cols() + 9, kSentinel);
  const MutableImageView roi = MutableImageView(big).subview(
      kRoiRow, kRoiCol, image.rows(), image.cols());
  rewrite_run_labels(runs, parents, tile, roi);
  for (Coord r = 0; r < big.rows(); ++r) {
    for (Coord c = 0; c < big.cols(); ++c) {
      const bool in_roi = r >= kRoiRow && r < kRoiRow + image.rows() &&
                          c >= kRoiCol && c < kRoiCol + image.cols();
      ASSERT_EQ(big(r, c),
                in_roi ? expected(r - kRoiRow, c - kRoiCol) : kSentinel)
          << r << "," << c;
    }
  }
}

/// Phases I and II on one thread: the grid, its runs and the merged
/// parent forest the renumber starts from.
struct ScannedGrid {
  std::vector<TileSpec> tiles;
  std::vector<RunBuffer> runs;
  std::vector<Label> parents;
};

ScannedGrid scan_grid(const BinaryImage& image, Coord tile_rows,
                      Coord tile_cols, Connectivity connectivity) {
  ScannedGrid g;
  g.tiles = make_tile_grid(image.rows(), image.cols(), tile_rows, tile_cols);
  g.runs.resize(g.tiles.size());
  g.parents.assign(static_cast<std::size_t>(image.size()) + 1, 0);
  for (std::size_t t = 0; t < g.tiles.size(); ++t) {
    g.tiles[t].used =
        scan_tile(image, g.parents, g.tiles[t], g.runs[t], connectivity);
  }
  const TileGridShape grid = tile_grid_shape(g.tiles);
  for (std::size_t t = 0; t < g.tiles.size(); ++t) {
    merge_run_seams(g.tiles, g.runs, t, grid, connectivity,
                    [&](Label x, Label y) {
                      uf::rem_unite(g.parents.data(), x, y);
                    });
  }
  return g;
}

/// One BandRenumber step over every band from `threads` std::threads,
/// band b on thread b % threads, so adjacent bands always run on
/// different threads (ThreadSanitizer then sees every cross-band access,
/// however the threads happen to be timed); join() is the barrier.
template <class Step>
void for_bands_on_threads(std::size_t bands, std::size_t threads,
                          Step step) {
  std::vector<std::thread> pool;
  for (std::size_t i = 0; i < threads; ++i) {
    pool.emplace_back([&, i] {
      for (std::size_t b = i; b < bands; b += threads) step(b);
    });
  }
  for (std::thread& t : pool) t.join();
}

TEST(TiledPhases, BandRenumberStdThreadMatchesSerialEntry) {
  // The band steps on raw std::thread, adjacent bands always on different
  // threads, so ThreadSanitizer sees every cross-band access of the
  // flatten, number and finalize steps whatever the executor's timing.
  const BinaryImage image = gen::uniform_noise(96, 80, 0.5, 23);
  for (const Connectivity connectivity :
       {Connectivity::Eight, Connectivity::Four}) {
    for (const auto& [tr, tc] : std::vector<std::pair<Coord, Coord>>{
             {8, 8}, {5, 16}, {1, 80}, {16, 1}, {3, 7}}) {
      const std::string context =
          "tiles " + std::to_string(tr) + "x" + std::to_string(tc) +
          (connectivity == Connectivity::Eight ? " 8-conn" : " 4-conn");
      const ScannedGrid g = scan_grid(image, tr, tc, connectivity);
      std::vector<Label> serial = g.parents;
      const Label want = resolve_final_run_labels(
          serial, g.tiles, g.runs, connectivity, image.rows(), {});

      std::vector<Label> banded = g.parents;
      BandRenumber renumber(banded, g.tiles, g.runs, connectivity);
      ASSERT_GT(renumber.bands(), 1u) << context;
      for_bands_on_threads(renumber.bands(), 4,
                           [&](std::size_t b) { renumber.flatten(b); });
      const Label k = renumber.assign_offsets();
      for_bands_on_threads(renumber.bands(), 4,
                           [&](std::size_t b) { renumber.number(b); });
      renumber.check();
      for_bands_on_threads(renumber.bands(), 4,
                           [&](std::size_t b) { renumber.finalize(b); });
      EXPECT_EQ(k, want) << context;
      EXPECT_EQ(banded, serial) << context;
    }
  }
}

}  // namespace
}  // namespace paremsp
