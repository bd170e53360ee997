// Tests for He's rtable/next/tail equivalence table (used by ARUN).
#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <vector>

#include "common/prng.hpp"
#include "unionfind/rem.hpp"
#include "unionfind/rtable.hpp"

namespace paremsp::uf {
namespace {

TEST(EquivalenceTable, NewLabelsAreConsecutiveSingletons) {
  EquivalenceTable t(10);
  EXPECT_EQ(t.new_label(), 1);
  EXPECT_EQ(t.new_label(), 2);
  EXPECT_EQ(t.new_label(), 3);
  EXPECT_EQ(t.label_count(), 3);
  for (Label l = 1; l <= 3; ++l) EXPECT_EQ(t.representative(l), l);
}

TEST(EquivalenceTable, ResolveKeepsSmallerRepresentative) {
  EquivalenceTable t(10);
  for (int i = 0; i < 5; ++i) t.new_label();
  EXPECT_EQ(t.resolve(4, 2), 2);
  EXPECT_EQ(t.representative(4), 2);
  EXPECT_EQ(t.representative(2), 2);
  EXPECT_EQ(t.resolve(2, 1), 1);
  EXPECT_EQ(t.representative(4), 1);  // transitively updated, O(1) lookup
  EXPECT_EQ(t.representative(2), 1);
}

TEST(EquivalenceTable, ResolveIsIdempotentAndSymmetric) {
  EquivalenceTable t(10);
  for (int i = 0; i < 4; ++i) t.new_label();
  EXPECT_EQ(t.resolve(1, 3), 1);
  EXPECT_EQ(t.resolve(3, 1), 1);
  EXPECT_EQ(t.resolve(1, 3), 1);
  EXPECT_EQ(t.representative(3), 1);
}

TEST(EquivalenceTable, MergingChainsKeepsAllMembersResolved) {
  EquivalenceTable t(64);
  for (int i = 0; i < 64; ++i) t.new_label();
  // Merge pairs, then pairs of pairs, etc. — every member must stay O(1)
  // resolved at every step.
  for (Label step = 1; step < 64; step *= 2) {
    for (Label l = 1; l + step <= 64; l += 2 * step) {
      t.resolve(l, l + step);
    }
    for (Label l = 1; l <= 64; ++l) {
      const Label rep = t.representative(l);
      EXPECT_EQ(t.representative(rep), rep) << "rep not idempotent at " << l;
    }
  }
  for (Label l = 1; l <= 64; ++l) EXPECT_EQ(t.representative(l), 1);
}

TEST(EquivalenceTable, MatchesRemOnRandomWorkloads) {
  Xoshiro256 rng(777);
  for (int round = 0; round < 6; ++round) {
    const Label n = static_cast<Label>(rng.next_in(2, 200));
    EquivalenceTable t(n);
    for (Label i = 0; i < n; ++i) t.new_label();
    // REM over 0..n-1 mirrors labels 1..n shifted by one.
    RemSplice rem(n);
    const int ops = static_cast<int>(rng.next_in(1, 3 * n));
    for (int i = 0; i < ops; ++i) {
      const Label x = static_cast<Label>(rng.next_in(1, n));
      const Label y = static_cast<Label>(rng.next_in(1, n));
      t.resolve(x, y);
      rem.unite(x - 1, y - 1);
    }
    for (Label l = 1; l <= n; ++l) {
      EXPECT_EQ(t.representative(l), rem.find(l - 1) + 1)
          << "label " << l << " round " << round;
    }
  }
}

TEST(EquivalenceTable, FlattenConsecutiveNumbersSetsInRepOrder) {
  EquivalenceTable t(8);
  for (int i = 0; i < 6; ++i) t.new_label();
  t.resolve(2, 5);  // {2,5} rep 2
  t.resolve(4, 6);  // {4,6} rep 4
  // Sets by min representative: {1}, {2,5}, {3}, {4,6}.
  EXPECT_EQ(t.flatten_consecutive(), 4);
  const auto f = t.final_labels();
  EXPECT_EQ(f[1], 1);
  EXPECT_EQ(f[2], 2);
  EXPECT_EQ(f[5], 2);
  EXPECT_EQ(f[3], 3);
  EXPECT_EQ(f[4], 4);
  EXPECT_EQ(f[6], 4);
}

TEST(EquivalenceTable, CapacityOverflowTrips) {
  EquivalenceTable t(2);
  t.new_label();
  t.new_label();
  EXPECT_THROW(t.new_label(), InvariantError);
}

TEST(EquivalenceTable, RejectsDegenerateCapacities) {
  // Degenerate sizes trip preconditions instead of wrapping the
  // allocation (negative) or letting new_label overflow Label (past
  // kMaxCapacity).
  EXPECT_THROW(EquivalenceTable(-1), PreconditionError);
  EquivalenceTable t(4);
  EXPECT_THROW(t.reset(-7), PreconditionError);
  EXPECT_THROW(t.reset(std::numeric_limits<Label>::max()),
               PreconditionError);
  // The failed resets left no usable state promise; a valid reset does.
  t.reset(1);
  EXPECT_EQ(t.new_label(), 1);
}

TEST(EquivalenceTable, RepresentativeRangeChecks) {
  EquivalenceTable t(5);
  t.new_label();
  EXPECT_THROW((void)t.representative(0), PreconditionError);
  EXPECT_THROW((void)t.representative(2), PreconditionError);
  EXPECT_THROW((void)t.resolve(1, 2), PreconditionError);
}

TEST(EquivalenceTable, ResetClearsState) {
  EquivalenceTable t(4);
  t.new_label();
  t.new_label();
  t.resolve(1, 2);
  t.reset(4);
  EXPECT_EQ(t.label_count(), 0);
  EXPECT_EQ(t.new_label(), 1);
  EXPECT_EQ(t.representative(1), 1);
}

}  // namespace
}  // namespace paremsp::uf
