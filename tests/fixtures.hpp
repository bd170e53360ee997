// Shared test fixtures: hand-drawn images with known component structure,
// plus helpers used across the suite.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/component_stats.hpp"
#include "core/request.hpp"
#include "image/ascii.hpp"
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

}  // namespace paremsp::testing
