//===- tests/test_linear_index.cpp - Affine index analysis tests ----------===//

#include "ir/LinearIndex.h"
#include "ir/ExprUtil.h"
#include "ir/Printer.h"

#include <gtest/gtest.h>

using namespace unit;

namespace {

TEST(LinearIndex, SimpleAffine) {
  IterVar I = makeAxis("i", 16), J = makeAxis("j", 4);
  ExprRef E = makeVar(I) * makeIntImm(4) + makeVar(J);
  LinearIndex L = analyzeLinear(E, {I.get(), J.get()});
  ASSERT_TRUE(L.Valid);
  EXPECT_EQ(L.coeffOf(I.get()), 4);
  EXPECT_EQ(L.coeffOf(J.get()), 1);
  int64_t C;
  ASSERT_TRUE(matchConstInt(L.Base, &C));
  EXPECT_EQ(C, 0);
}

TEST(LinearIndex, PartialTargetsLeaveSymbolicBase) {
  IterVar X = makeAxis("x", 8), Inner = makeAxis("xi", 4);
  ExprRef E = makeVar(X) * makeIntImm(64) + makeVar(Inner) * makeIntImm(16);
  LinearIndex L = analyzeLinear(E, {Inner.get()});
  ASSERT_TRUE(L.Valid);
  EXPECT_EQ(L.coeffOf(Inner.get()), 16);
  EXPECT_EQ(L.coeffOf(X.get()), 0);
  EXPECT_EQ(exprToString(L.Base), "x * 64");
}

TEST(LinearIndex, SubtractionNegatesCoeffs) {
  IterVar I = makeAxis("i", 8);
  ExprRef E = makeIntImm(100) - makeVar(I) * makeIntImm(3);
  LinearIndex L = analyzeLinear(E, {I.get()});
  ASSERT_TRUE(L.Valid);
  EXPECT_EQ(L.coeffOf(I.get()), -3);
}

TEST(LinearIndex, CancellingTermsDropOut) {
  IterVar I = makeAxis("i", 8);
  ExprRef E = makeVar(I) - makeVar(I);
  LinearIndex L = analyzeLinear(E, {I.get()});
  ASSERT_TRUE(L.Valid);
  EXPECT_FALSE(L.dependsOn(I.get()));
}

TEST(LinearIndex, ConstTimesVarBothSides) {
  IterVar I = makeAxis("i", 8);
  ExprRef E1 = makeIntImm(5) * makeVar(I);
  ExprRef E2 = makeVar(I) * makeIntImm(5);
  EXPECT_EQ(analyzeLinear(E1, {I.get()}).coeffOf(I.get()), 5);
  EXPECT_EQ(analyzeLinear(E2, {I.get()}).coeffOf(I.get()), 5);
}

TEST(LinearIndex, TargetTimesTargetInvalid) {
  IterVar I = makeAxis("i", 8), J = makeAxis("j", 8);
  ExprRef E = makeVar(I) * makeVar(J);
  EXPECT_FALSE(analyzeLinear(E, {I.get(), J.get()}).Valid);
}

TEST(LinearIndex, NonTargetProductStaysSymbolic) {
  IterVar X = makeAxis("x", 8), Y = makeAxis("y", 8), I = makeAxis("i", 4);
  ExprRef E = makeVar(X) * makeVar(Y) + makeVar(I);
  LinearIndex L = analyzeLinear(E, {I.get()});
  ASSERT_TRUE(L.Valid);
  EXPECT_EQ(L.coeffOf(I.get()), 1);
}

TEST(LinearIndex, DivisionOfTargetInvalid) {
  IterVar I = makeAxis("i", 8);
  ExprRef E = makeVar(I) / makeIntImm(2);
  EXPECT_FALSE(analyzeLinear(E, {I.get()}).Valid);
}

TEST(LinearIndex, DivisionOfNonTargetAllowed) {
  IterVar X = makeAxis("x", 8), I = makeAxis("i", 4);
  ExprRef E = makeVar(X) / makeIntImm(2) + makeVar(I);
  LinearIndex L = analyzeLinear(E, {I.get()});
  ASSERT_TRUE(L.Valid);
  EXPECT_EQ(L.coeffOf(I.get()), 1);
}

TEST(LinearIndex, NestedSplitReconstruction) {
  // The exact shape Schedule::resolve produces: xo*16 + (xm*4 + xi).
  IterVar Xo = makeAxis("xo", 2), Xm = makeAxis("xm", 4), Xi = makeAxis("xi", 4);
  ExprRef E =
      makeVar(Xo) * makeIntImm(16) + (makeVar(Xm) * makeIntImm(4) + makeVar(Xi));
  LinearIndex L = analyzeLinear(E, {Xi.get()});
  ASSERT_TRUE(L.Valid);
  EXPECT_EQ(L.coeffOf(Xi.get()), 1);
  LinearIndex L2 = analyzeLinear(E, {Xo.get(), Xm.get(), Xi.get()});
  EXPECT_EQ(L2.coeffOf(Xo.get()), 16);
  EXPECT_EQ(L2.coeffOf(Xm.get()), 4);
}

} // namespace
