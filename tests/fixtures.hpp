// Shared test fixtures: hand-drawn images with known component structure,
// plus helpers used across the suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/component_stats.hpp"
#include "core/request.hpp"
#include "image/ascii.hpp"
#include "image/generators.hpp"
#include "image/raster.hpp"

namespace paremsp::testing {

/// Exact equality of two component-stats sets: integers compared
/// directly, and the centroid doubles are sum/area on both sides, so they
/// must match bit-for-bit too. The single comparison contract for every
/// fused-vs-post-pass crosscheck in the suite.
inline void expect_stats_identical(const analysis::ComponentStats& got,
                                   const analysis::ComponentStats& want,
                                   const std::string& context) {
  ASSERT_EQ(got.components.size(), want.components.size()) << context;
  for (std::size_t i = 0; i < got.components.size(); ++i) {
    EXPECT_EQ(got.components[i], want.components[i])
        << context << " component " << i + 1;
  }
}

/// A request for labels plus fused component stats over `image`.
inline LabelRequest stats_request(ConstImageView image) {
  LabelRequest request;
  request.input = image;
  request.outputs.stats = true;
  return request;
}

/// A fixture image with its known 8-connectivity and 4-connectivity
/// component counts (hand-verified).
struct Fixture {
  std::string name;
  BinaryImage image;
  Label components8 = 0;
  Label components4 = 0;
};

/// The library of hand-drawn fixtures.
inline const std::vector<Fixture>& fixtures() {
  static const std::vector<Fixture> all = [] {
    std::vector<Fixture> fx;
    auto add = [&fx](std::string name, std::string_view art, Label c8,
                     Label c4) {
      fx.push_back({std::move(name), binary_from_ascii(art), c8, c4});
    };

    add("empty_3x3",
        R"(
...
...
...)",
        0, 0);

    add("full_3x3",
        R"(
###
###
###)",
        1, 1);

    add("single_pixel",
        R"(
.....
..#..
.....)",
        1, 1);

    add("two_dots",
        R"(
#...#
.....
.....)",
        2, 2);

    add("diagonal_pair",
        R"(
#.
.#)",
        1, 2);

    add("anti_diagonal_pair",
        R"(
.#
#.)",
        1, 2);

    add("checker_5x5",
        R"(
#.#.#
.#.#.
#.#.#
.#.#.
#.#.#)",
        1, 13);

    add("u_shape",
        R"(
#...#
#...#
#####)",
        1, 1);

    add("arch",  // components split by a row boundary then rejoined above
        R"(
#####
#...#
#...#
#...#)",
        1, 1);

    add("h_shape",
        R"(
#...#
#####
#...#)",
        1, 1);

    add("nested_rings",
        R"(
#########
#.......#
#.#####.#
#.#...#.#
#.#.#.#.#
#.#...#.#
#.#####.#
#.......#
#########)",
        3, 3);

    add("comb_down",  // teeth crossing every horizontal cut
        R"(
#########
#.#.#.#.#
#.#.#.#.#
#.#.#.#.#)",
        1, 1);

    add("comb_up",
        R"(
#.#.#.#.#
#.#.#.#.#
#.#.#.#.#
#########)",
        1, 1);

    add("zigzag_diagonal",
        R"(
#......
.#.....
..#....
...#...
....#..
.....#.
......#)",
        1, 7);

    add("spiral_7x7",
        R"(
#######
......#
#####.#
#...#.#
#.###.#
#.....#
#######)",
        1, 1);

    add("stairs",
        R"(
##.....
.##....
..##...
...##..
....##.
.....##)",
        1, 1);

    add("sparse_diagonals",  // merges discovered only via c-neighbor
        R"(
.#.#.#.#
#.#.#.#.
.#.#.#.#
#.#.#.#.)",
        1, 16);

    add("row_1xN",
        R"(
##.##.#.###)",
        4, 4);

    add("col_Nx1",
        R"(
#
#
.
#
.
#
#)",
        3, 3);

    add("t_junctions",
        R"(
.#.#.#.
#######
.#.#.#.)",
        1, 1);

    add("x_cross",
        R"(
#...#
.#.#.
..#..
.#.#.
#...#)",
        1, 9);

    add("border_frame",
        R"(
######
#....#
#....#
######)",
        1, 1);

    add("odd_rows_tail",  // exercises the odd trailing row of the pair scan
        R"(
##..##
......
##..##
......
######)",
        5, 5);

    add("merge_at_last_row",
        R"(
#....#
#....#
#....#
######)",
        1, 1);

    add("w_shape",
        R"(
#...#...#
#...#...#
.#.#.#.#.
..#...#..)",
        1, 9);

    return fx;
  }();
  return all;
}

/// A 48x48 image built to stress the band-parallel renumber
/// (BandRenumber), whose bands are horizontal strips of whole tile rows.
/// With 8x8 tiles:
///   - C enters tile (1,1) at row 8 (band 1's first row pair), descends
///     column 12 and runs left along row 13 into tile (1,0), so its root
///     lies in tile (1,0) while its first two-line visit lies in tile
///     (1,1). X, alone in tile (1,0) at row 10, takes the smaller label in
///     that tile but is visited after C;
///   - a vertical line in column 30 rooted in band 0 reaches into bands 1
///     and 2, whose walks must skip it;
///   - a serpentine in columns 34..46 visits every band and is rooted in
///     band 0 (connected under 4- and 8-connectivity);
///   - single-pixel components at (r, 25) and (r + 1, 17) for every odd
///     r <= 21: whatever odd row a misplaced band boundary falls on, the
///     lower, further-left dot would be visited first if that band paired
///     its rows from the boundary instead of from an even row;
///   - rows 24..47 of columns 0..31 hold density-0.5 noise.
/// Every other tile geometry sees the same features cut differently.
inline BinaryImage band_renumber_image() {
  BinaryImage image(48, 48, 0);
  image(8, 12) = image(8, 13) = 1;                   // C, first visit
  for (Coord r = 8; r <= 13; ++r) image(r, 12) = 1;  // C, descent
  for (Coord c = 5; c <= 12; ++c) image(13, c) = 1;  // C, root side
  image(10, 2) = image(10, 3) = 1;                   // X
  for (Coord r = 2; r <= 20; ++r) image(r, 30) = 1;
  for (Coord r = 1; r <= 21; r += 2) image(r, 25) = image(r + 1, 17) = 1;
  for (Coord r = 1, turn = 0; r < 48; r += 3, ++turn) {
    for (Coord c = 34; c <= 46; ++c) image(r, c) = 1;
    const Coord connector = turn % 2 == 0 ? 46 : 34;
    for (Coord k = r + 1; k < std::min<Coord>(r + 3, 48); ++k) {
      image(k, connector) = 1;
    }
  }
  const BinaryImage noise = gen::uniform_noise(24, 32, 0.5, 15);
  for (Coord r = 0; r < 24; ++r) {
    for (Coord c = 0; c < 32; ++c) image(r + 24, c) = noise(r, c);
  }
  return image;
}

}  // namespace paremsp::testing
