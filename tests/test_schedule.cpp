//===- tests/test_schedule.cpp - Schedule primitive tests -----------------===//

#include "TestUtil.h"
#include "ir/Printer.h"
#include "schedule/Schedule.h"

#include <gtest/gtest.h>

using namespace unit;
using namespace unit::testutil;

namespace {

TEST(Schedule, DefaultLeavesAreAllAxes) {
  OpFixture F = makeConv2D(8, 8, 8, 16, 3, 3);
  Schedule S(F.Op);
  EXPECT_EQ(S.leaves().size(), 6u);
  EXPECT_EQ(S.leaves()[0], F.Op->axes()[0]);
  EXPECT_EQ(S.leaves()[5], F.Op->reduceAxes()[2]);
}

TEST(Schedule, SplitReplacesLeafInPlace) {
  OpFixture F = makeMatmulU8I8(16, 16, 64);
  Schedule S(F.Op);
  IterVar J = F.Op->axes()[1];
  auto [Outer, Inner] = S.split(J, 4);
  EXPECT_EQ(Outer->extent(), 4);
  EXPECT_EQ(Inner->extent(), 4);
  ASSERT_EQ(S.leaves().size(), 4u);
  EXPECT_EQ(S.leaves()[1], Outer);
  EXPECT_EQ(S.leaves()[2], Inner);
  EXPECT_FALSE(S.isLeaf(J));
}

TEST(Schedule, SplitKeepsIterKind) {
  OpFixture F = makeMatmulU8I8(16, 16, 64);
  Schedule S(F.Op);
  auto [Outer, Inner] = S.split(F.Op->reduceAxes()[0], 8);
  EXPECT_TRUE(Outer->isReduce());
  EXPECT_TRUE(Inner->isReduce());
}

TEST(Schedule, ImperfectSplitRoundsUpAndGuards) {
  OpFixture F = makeMatmulU8I8(10, 16, 64);
  Schedule S(F.Op);
  auto [Outer, Inner] = S.split(F.Op->axes()[0], 4);
  EXPECT_EQ(Outer->extent(), 3); // ceil(10/4)
  EXPECT_EQ(Inner->extent(), 4);
  EXPECT_EQ(S.resolve().Guards.size(), 1u);
}

TEST(Schedule, PerfectSplitNeedsNoGuard) {
  OpFixture F = makeMatmulU8I8(16, 16, 64);
  Schedule S(F.Op);
  S.split(F.Op->axes()[0], 4);
  EXPECT_TRUE(S.resolve().Guards.empty());
}

TEST(Schedule, FuseAdjacent) {
  OpFixture F = makeMatmulU8I8(8, 8, 16);
  Schedule S(F.Op);
  IterVar Fused = S.fuse(F.Op->axes()[0], F.Op->axes()[1]);
  EXPECT_EQ(Fused->extent(), 64);
  EXPECT_EQ(S.leaves().size(), 2u);
  EXPECT_EQ(S.leaves()[0], Fused);
}

TEST(Schedule, ReorderSubsetKeepsPositions) {
  OpFixture F = makeConv2D(8, 8, 8, 16, 3, 3);
  Schedule S(F.Op);
  // Leaves: x y k r s rc. Reorder k before y only.
  IterVar Y = F.Op->axes()[1], K = F.Op->axes()[2];
  S.reorder({K, Y});
  EXPECT_EQ(S.leaves()[1], K);
  EXPECT_EQ(S.leaves()[2], Y);
  EXPECT_EQ(S.leaves()[0], F.Op->axes()[0]);
}

TEST(Schedule, ResolveReconstructsSplit) {
  OpFixture F = makeMatmulU8I8(16, 16, 64);
  Schedule S(F.Op);
  IterVar I = F.Op->axes()[0];
  auto [Outer, Inner] = S.split(I, 4);
  VarSubst Roots = S.resolve().Roots;
  EXPECT_EQ(exprToString(Roots.at(I.get())),
            Outer->name() + " * 4 + " + Inner->name());
}

TEST(Schedule, ResolveReconstructsSplitOfSplit) {
  OpFixture F = makeMatmulU8I8(64, 16, 64);
  Schedule S(F.Op);
  IterVar I = F.Op->axes()[0];
  auto [Outer, Inner] = S.split(I, 16);
  auto [O2, I2] = S.split(Inner, 4);
  VarSubst Roots = S.resolve().Roots;
  EXPECT_EQ(exprToString(Roots.at(I.get())),
            Outer->name() + " * 16 + (" + O2->name() + " * 4 + " +
                I2->name() + ")");
}

TEST(Schedule, ResolveReconstructsFuse) {
  OpFixture F = makeMatmulU8I8(8, 4, 16);
  Schedule S(F.Op);
  IterVar I = F.Op->axes()[0], J = F.Op->axes()[1];
  IterVar Fused = S.fuse(I, J);
  VarSubst Roots = S.resolve().Roots;
  EXPECT_EQ(exprToString(Roots.at(I.get())), Fused->name() + " / 4");
  EXPECT_EQ(exprToString(Roots.at(J.get())), Fused->name() + " % 4");
}

TEST(Schedule, ResolveWalksSplitsAndFusesInCreationOrder) {
  // A fuse of split products, then a split of the fused loop, then an
  // imperfect split: each relation reads values the later ones made.
  OpFixture F = makeMatmulU8I8(8, 12, 16);
  Schedule S(F.Op);
  IterVar I = F.Op->axes()[0], J = F.Op->axes()[1];
  auto [Io, Ii] = S.split(I, 2);
  IterVar Fused = S.fuse(Ii, J);
  auto [Fo, Fi] = S.split(Fused, 3);
  auto [Oo, Oi] = S.split(Io, 3); // 4 % 3 != 0: guarded.
  Schedule::Resolution R = S.resolve();
  std::string FusedValue = Fo->name() + " * 3 + " + Fi->name();
  EXPECT_EQ(exprToString(R.Roots.at(I.get())),
            "(" + Oo->name() + " * 3 + " + Oi->name() + ") * 2 + (" +
                FusedValue + ") / 12");
  EXPECT_EQ(exprToString(R.Roots.at(J.get())), "(" + FusedValue + ") % 12");
  ASSERT_EQ(R.Guards.size(), 1u);
  EXPECT_EQ(exprToString(R.Guards[0]),
            "lt(" + Oo->name() + " * 3 + " + Oi->name() + ", 4)");
}

TEST(Schedule, ResolveGuardsFollowSplitOrder) {
  OpFixture F = makeMatmulU8I8(10, 14, 16);
  Schedule S(F.Op);
  auto [Jo, Ji] = S.split(F.Op->axes()[1], 4); // 14 % 4: first guard.
  auto [Io, Ii] = S.split(F.Op->axes()[0], 3); // 10 % 3: second guard.
  std::vector<ExprRef> Guards = S.resolve().Guards;
  ASSERT_EQ(Guards.size(), 2u);
  EXPECT_EQ(exprToString(Guards[0]),
            "lt(" + Jo->name() + " * 4 + " + Ji->name() + ", 14)");
  EXPECT_EQ(exprToString(Guards[1]),
            "lt(" + Io->name() + " * 3 + " + Ii->name() + ", 10)");
}

TEST(Schedule, ResolveReadsBoundLeafValues) {
  // Binding a tile-inner loop to 0 resolves the tile origin.
  OpFixture F = makeMatmulU8I8(16, 16, 64);
  Schedule S(F.Op);
  IterVar I = F.Op->axes()[0];
  auto [Outer, Inner] = S.split(I, 4);
  VarSubst Origin;
  Origin[Inner.get()] = makeIntImm(0);
  Schedule::Resolution R = S.resolve(Origin);
  EXPECT_EQ(exprToString(R.Roots.at(I.get())), Outer->name() + " * 4");
  EXPECT_EQ(exprToString(R.Roots.at(F.Op->axes()[1].get())),
            F.Op->axes()[1]->name());
}

TEST(Schedule, AnnotationsDefaultSerial) {
  OpFixture F = makeMatmulU8I8(8, 4, 16);
  Schedule S(F.Op);
  IterVar I = F.Op->axes()[0];
  EXPECT_EQ(S.annotation(I), ForKind::Serial);
  S.parallel(I);
  EXPECT_EQ(S.annotation(I), ForKind::Parallel);
  S.unroll(F.Op->axes()[1]);
  EXPECT_EQ(S.annotation(F.Op->axes()[1]), ForKind::Unrolled);
}

TEST(Schedule, PragmaAttaches) {
  OpFixture F = makeMatmulU8I8(8, 4, 16);
  Schedule S(F.Op);
  IterVar J = F.Op->axes()[1];
  S.pragma(J, "tensorize", "vnni.vpdpbusd");
  auto P = S.pragmas(J);
  ASSERT_EQ(P.size(), 1u);
  EXPECT_EQ(P[0].first, "tensorize");
  EXPECT_EQ(P[0].second, "vnni.vpdpbusd");
}

TEST(ScheduleDeath, SplitNonLeaf) {
  OpFixture F = makeMatmulU8I8(16, 16, 64);
  Schedule S(F.Op);
  IterVar I = F.Op->axes()[0];
  S.split(I, 4);
  EXPECT_DEATH(S.split(I, 2), "not a leaf");
}

TEST(ScheduleDeath, FuseNonAdjacent) {
  OpFixture F = makeConv2D(8, 8, 8, 16, 3, 3);
  Schedule S(F.Op);
  EXPECT_DEATH(S.fuse(F.Op->axes()[0], F.Op->axes()[2]), "adjacent");
}

TEST(ScheduleDeath, FuseAcrossIterKinds) {
  OpFixture F = makeConv2D(8, 8, 8, 16, 3, 3);
  Schedule S(F.Op);
  // k (data-parallel) is adjacent to r (reduce).
  EXPECT_DEATH(S.fuse(F.Op->axes()[2], F.Op->reduceAxes()[0]),
               "cannot fuse");
}

TEST(ScheduleDeath, ParallelOnReduceLoop) {
  OpFixture F = makeMatmulU8I8(16, 16, 64);
  Schedule S(F.Op);
  EXPECT_DEATH(S.parallel(F.Op->reduceAxes()[0]), "cannot be CPU-parallel");
}

} // namespace
