// Kernel-level tests: the scan kernels and equivalence policies in
// isolation (the algorithm-level suites cover them end-to-end; these pin
// down the chunk-masking contract and the provisional-label bookkeeping
// that PAREMSP's label-space partitioning depends on).
#include <gtest/gtest.h>

#include <vector>

#include "core/equiv_policies.hpp"
#include "core/scan_one_line.hpp"
#include "core/scan_two_line.hpp"
#include "image/ascii.hpp"
#include "image/generators.hpp"
#include "unionfind/rem.hpp"

namespace paremsp {
namespace {

// --- Equivalence policies -----------------------------------------------------

TEST(RemEquivPolicy, IssuesLabelsFromBase) {
  std::vector<Label> p(100);
  RemEquiv eq(p, /*base=*/40);
  EXPECT_EQ(eq.new_label(), 41);
  EXPECT_EQ(eq.new_label(), 42);
  EXPECT_EQ(eq.used(), 2);
  EXPECT_EQ(p[41], 41);
  EXPECT_EQ(p[42], 42);
  eq.merge(41, 42);
  EXPECT_EQ(uf::rem_find(p.data(), 42), 41);
  EXPECT_EQ(eq.copy(42), 41);  // copy reads the (spliced) parent
}

TEST(WuEquivPolicy, MergeLinksUnderMinimum) {
  std::vector<Label> p(10);
  WuEquiv eq(p);
  const Label a = eq.new_label();
  const Label b = eq.new_label();
  const Label c = eq.new_label();
  EXPECT_EQ(eq.merge(b, c), b);
  EXPECT_EQ(eq.merge(c, a), a);  // min label becomes the root
  // copy() reads the immediate parent: c was compressed onto b *before*
  // b was re-rooted under a, so one more find is needed for the root.
  EXPECT_EQ(eq.copy(c), b);
  EXPECT_EQ(uf::wu_find(p.data(), c), a);
  EXPECT_EQ(eq.copy(c), a);  // find() compressed c directly onto a
  EXPECT_EQ(eq.used(), 3);
}

TEST(RtableEquivPolicy, CopyIsIdentity) {
  uf::EquivalenceTable table(10);
  RtableEquiv eq(table);
  const Label a = eq.new_label();
  const Label b = eq.new_label();
  EXPECT_EQ(eq.copy(b), b);
  EXPECT_EQ(eq.merge(a, b), a);
  EXPECT_EQ(table.representative(b), a);
}

// --- Chunk masking contract -----------------------------------------------------

TEST(TwoLineScan, ChunkTopRowIgnoresRowsAbove) {
  // A vertical bar: scanning rows [2, 4) must NOT see rows 0-1, so the
  // bar's lower half gets a fresh label unconnected to anything.
  const BinaryImage img = binary_from_ascii(
      R"(
#....
#....
#....
#....)");
  LabelImage labels(4, 5, -1);
  std::vector<Label> p(21);
  RemEquiv eq(p, /*base=*/10);
  const Label used = scan_two_line(img, labels, eq, 2, 4);
  EXPECT_EQ(used, 1);
  EXPECT_EQ(labels(2, 0), 11);  // base + 1
  EXPECT_EQ(labels(3, 0), 11);
  // Rows outside the chunk untouched.
  EXPECT_EQ(labels(0, 0), -1);
  EXPECT_EQ(labels(1, 0), -1);
}

TEST(OneLineScan, ChunkTopRowIgnoresRowsAbove) {
  const BinaryImage img = binary_from_ascii(
      R"(
#....
#....
#....
#....)");
  LabelImage labels(4, 5, -1);
  std::vector<Label> p(21);
  RemEquiv eq(p, /*base=*/5);
  const Label used = scan_one_line_8(img, labels, eq, 2, 4);
  EXPECT_EQ(used, 1);
  EXPECT_EQ(labels(2, 0), 6);
  EXPECT_EQ(labels(3, 0), 6);
  EXPECT_EQ(labels(1, 0), -1);
}

TEST(TwoLineScan, OddTrailingRowHasNoPairRow) {
  // Rows [0, 3): the scan processes pair (0,1) then row 2 alone; pixels in
  // a phantom row 3 must never be touched.
  const BinaryImage img = binary_from_ascii(
      R"(
##.
...
.##)");
  LabelImage labels(3, 3, -1);
  std::vector<Label> p(10);
  RemEquiv eq(p);
  const Label used = scan_two_line(img, labels, eq, 0, 3);
  EXPECT_EQ(used, 2);
  EXPECT_EQ(labels(0, 0), labels(0, 1));
  EXPECT_EQ(labels(2, 1), labels(2, 2));
  EXPECT_NE(labels(0, 0), labels(2, 1));
}

TEST(TwoLineScan, LabelCountStaysWithinChunkBudget) {
  // PAREMSP gives each chunk a label budget of chunk_rows * cols; the
  // adversarial isolated-dots pattern must stay well inside it.
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const BinaryImage img = gen::uniform_noise(32, 64, 0.5, seed);
    LabelImage labels(32, 64);
    std::vector<Label> p(32 * 64 + 1);
    RemEquiv eq(p);
    const Label used = scan_two_line(img, labels, eq, 0, 32);
    EXPECT_LE(used, 32 * 64 / 2);
  }
  // The worst case: isolated pixels on a period-2 grid.
  BinaryImage dots(32, 64);
  for (Coord r = 0; r < 32; r += 2) {
    for (Coord c = 0; c < 64; c += 2) dots(r, c) = 1;
  }
  LabelImage labels(32, 64);
  std::vector<Label> p(32 * 64 + 1);
  RemEquiv eq(p);
  EXPECT_EQ(scan_two_line(dots, labels, eq, 0, 32), 16 * 32);
}

TEST(TwoLineScan, MergesAcrossPairBoundary) {
  // The b/f neighbors cross the two-row pair boundary; this image forces
  // the merge in the "e fg, d bg, b fg, f fg" branch.
  const BinaryImage img = binary_from_ascii(
      R"(
.#.
.#.
#..
#..)");
  LabelImage labels(4, 3);
  std::vector<Label> p(13);
  RemEquiv eq(p);
  (void)scan_two_line(img, labels, eq, 0, 4);
  // (2,0) is 8-adjacent to (1,1): same component after resolution.
  EXPECT_EQ(uf::rem_find(p.data(), labels(2, 0)),
            uf::rem_find(p.data(), labels(1, 1)));
}

}  // namespace
}  // namespace paremsp
