//===- tests/test_expr.cpp - Expression tree unit tests -------------------===//

#include "ir/Expr.h"
#include "ir/ExprUtil.h"
#include "ir/Printer.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

using namespace unit;

namespace {

TEST(Expr, IntImm) {
  ExprRef E = makeIntImm(42);
  ASSERT_TRUE(isa<IntImmNode>(E));
  EXPECT_EQ(cast<IntImmNode>(E)->Value, 42);
  EXPECT_EQ(E->dtype(), DataType::i32());
}

TEST(Expr, SmallI32ImmediatesShareOneNode) {
  // The table's values come back as one node each, ends included.
  EXPECT_EQ(makeIntImm(0), makeIntImm(0));
  EXPECT_EQ(makeIntImm(16), makeIntImm(16));
  EXPECT_EQ(makeIntImm(-128), makeIntImm(-128));
  EXPECT_EQ(makeIntImm(1024), makeIntImm(1024));
  EXPECT_EQ(cast<IntImmNode>(makeIntImm(-7))->Value, -7);
  // Other values, and the same values in other types, get fresh nodes.
  EXPECT_NE(makeIntImm(1025), makeIntImm(1025));
  EXPECT_NE(makeIntImm(-129), makeIntImm(-129));
  EXPECT_NE(makeIntImm(4, DataType::i64()), makeIntImm(4, DataType::i64()));
  ExprRef Byte = makeIntImm(4, DataType::i8());
  EXPECT_NE(Byte, makeIntImm(4));
  EXPECT_EQ(Byte->dtype(), DataType::i8());
  EXPECT_EQ(cast<IntImmNode>(Byte)->Value, 4);
}

TEST(Expr, ConstantFolding) {
  ExprRef E = makeIntImm(6) * makeIntImm(7);
  ASSERT_TRUE(isa<IntImmNode>(E));
  EXPECT_EQ(cast<IntImmNode>(E)->Value, 42);
}

TEST(Expr, AlgebraicIdentities) {
  IterVar I = makeAxis("i", 8);
  ExprRef V = makeVar(I);
  EXPECT_EQ(V + makeIntImm(0), V);
  EXPECT_EQ(V * makeIntImm(1), V);
  ExprRef Zero = V * makeIntImm(0);
  ASSERT_TRUE(isa<IntImmNode>(Zero));
  EXPECT_EQ(cast<IntImmNode>(Zero)->Value, 0);
}

TEST(Expr, BinaryKindsCoveredByClassof) {
  ExprRef A = makeIntImm(1), B = makeIntImm(2);
  for (auto K : {ExprNode::Kind::Min, ExprNode::Kind::Max}) {
    ExprRef E = makeBinary(K, A, B);
    // Min/Max of constants folds too.
    EXPECT_TRUE(isa<IntImmNode>(E));
  }
  IterVar I = makeAxis("i", 4);
  ExprRef E = makeBinary(ExprNode::Kind::Min, makeVar(I), B);
  EXPECT_TRUE(isa<BinaryNode>(E));
  EXPECT_EQ(E->kind(), ExprNode::Kind::Min);
}

TEST(Expr, CastPreservesLanesAndCollapsesNoOp) {
  TensorRef T = makeTensor("t", {64}, DataType::u8());
  IterVar I = makeAxis("i", 16);
  ExprRef L = makeLoad(T, {makeVar(I)});
  ExprRef C = makeCast(DataType::i32(), L);
  EXPECT_EQ(C->dtype(), DataType::i32());
  EXPECT_EQ(makeCast(DataType::u8(), L), L) << "no-op cast must collapse";
}

TEST(Expr, LoadDtypeFollowsBufferAndLanes) {
  TensorRef T = makeTensor("t", {8, 8}, DataType::i8());
  IterVar I = makeAxis("i", 8);
  ExprRef Scalar = makeLoad(T, {makeVar(I), makeIntImm(0)});
  EXPECT_EQ(Scalar->dtype(), DataType::i8());
  ExprRef Vec = makeVectorLoad(T, makeRamp(makeIntImm(0), 1, 4));
  EXPECT_EQ(Vec->dtype(), DataType::i8(4));
}

TEST(Expr, RampAndBroadcastLanes) {
  ExprRef R = makeRamp(makeIntImm(5), 2, 8);
  EXPECT_EQ(R->dtype().lanes(), 8u);
  ExprRef B = makeBroadcast(R, 3);
  EXPECT_EQ(B->dtype().lanes(), 24u);
}

TEST(Expr, ConcatLanesAndSingletonCollapse) {
  ExprRef A = makeRamp(makeIntImm(0), 1, 4);
  ExprRef B = makeRamp(makeIntImm(8), 1, 4);
  ExprRef C = makeConcat({A, B});
  EXPECT_EQ(C->dtype().lanes(), 8u);
  EXPECT_EQ(makeConcat({A}), A);
}

TEST(Expr, ReduceRequiresReduceAxes) {
  IterVar J = makeReduceAxis("j", 4);
  ExprRef Src = makeIntImm(1);
  ExprRef R = makeReduce(ReduceKind::Sum, Src, {J});
  ASSERT_TRUE(isa<ReduceNode>(R));
  EXPECT_EQ(cast<ReduceNode>(R)->Axes.size(), 1u);
  EXPECT_EQ(cast<ReduceNode>(R)->Init, nullptr);
}

TEST(ExprUtil, StructuralEqualPositive) {
  TensorRef T = makeTensor("t", {16}, DataType::u8());
  IterVar I = makeAxis("i", 16);
  auto Build = [&] {
    return makeCast(DataType::i32(), makeLoad(T, {makeVar(I)})) +
           makeIntImm(1);
  };
  EXPECT_TRUE(structuralEqual(Build(), Build()));
}

TEST(ExprUtil, StructuralEqualDistinguishesDtype) {
  TensorRef T8 = makeTensor("t", {16}, DataType::u8());
  TensorRef T8b = makeTensor("t", {16}, DataType::i8());
  IterVar I = makeAxis("i", 16);
  ExprRef A = makeLoad(T8, {makeVar(I)});
  ExprRef B = makeLoad(T8b, {makeVar(I)});
  EXPECT_FALSE(structuralEqual(A, B));
}

TEST(ExprUtil, StructuralEqualDistinguishesVars) {
  IterVar I = makeAxis("i", 16), J = makeAxis("j", 16);
  EXPECT_FALSE(structuralEqual(makeVar(I), makeVar(J)));
}

TEST(ExprUtil, Substitute) {
  IterVar I = makeAxis("i", 16), J = makeAxis("j", 4);
  ExprRef E = makeVar(I) * makeIntImm(4) + makeVar(J);
  VarSubst Subst;
  Subst[I.get()] = makeIntImm(3);
  Subst[J.get()] = makeIntImm(1);
  ExprRef R = substitute(E, Subst);
  ASSERT_TRUE(isa<IntImmNode>(R));
  EXPECT_EQ(cast<IntImmNode>(R)->Value, 13);
}

TEST(ExprUtil, VarSubstKeepsTheMapInterface) {
  IterVar I = makeAxis("i", 16), J = makeAxis("j", 4), K = makeAxis("k", 2);
  VarSubst Subst;
  EXPECT_TRUE(Subst.empty());
  // operator[] inserts a missing key and finds a present one.
  Subst[I.get()] = makeIntImm(3);
  EXPECT_EQ(Subst.size(), 1u);
  EXPECT_EQ(cast<IntImmNode>(Subst[I.get()])->Value, 3);
  EXPECT_EQ(Subst.size(), 1u);
  // emplace keeps the value of a present key.
  auto [It, Inserted] = Subst.emplace(I.get(), makeIntImm(5));
  EXPECT_FALSE(Inserted);
  EXPECT_EQ(cast<IntImmNode>(It->second)->Value, 3);
  EXPECT_TRUE(Subst.emplace(J.get(), makeVar(I)).second);
  EXPECT_EQ(Subst.count(J.get()), 1u);
  EXPECT_EQ(Subst.count(K.get()), 0u);
  EXPECT_EQ(Subst.find(K.get()), Subst.end());
  // at() reads a present key and throws on a missing one.
  EXPECT_EQ(cast<VarNode>(Subst.at(J.get()))->IV, I);
  EXPECT_THROW(Subst.at(K.get()), std::out_of_range);
  // Iteration visits the entries in insertion order.
  std::vector<const IterVarNode *> Keys;
  for (const auto &[Key, Value] : Subst)
    Keys.push_back(Key);
  EXPECT_EQ(Keys, (std::vector<const IterVarNode *>{I.get(), J.get()}));
}

TEST(ExprUtil, CollectVarsInOrderDistinct) {
  IterVar I = makeAxis("i", 16), J = makeAxis("j", 4);
  ExprRef E = makeVar(J) + makeVar(I) * makeVar(J);
  std::vector<IterVar> Vars = collectVars(E);
  ASSERT_EQ(Vars.size(), 2u);
  EXPECT_EQ(Vars[0], J);
  EXPECT_EQ(Vars[1], I);
}

TEST(ExprUtil, CollectLoads) {
  TensorRef T = makeTensor("t", {4}, DataType::i32());
  ExprRef E = makeLoad(T, {makeIntImm(0)}) + makeLoad(T, {makeIntImm(1)});
  EXPECT_EQ(collectLoads(E).size(), 2u);
}

TEST(Printer, RendersArithmetic) {
  IterVar I = makeAxis("i", 16), J = makeAxis("j", 4);
  ExprRef E = makeVar(I) * makeIntImm(4) + makeVar(J);
  EXPECT_EQ(exprToString(E), "i * 4 + j");
}

TEST(Printer, ParenthesizesByPrecedence) {
  IterVar I = makeAxis("i", 16), J = makeAxis("j", 4);
  ExprRef E = (makeVar(I) + makeIntImm(1)) * makeVar(J);
  EXPECT_EQ(exprToString(E), "(i + 1) * j");
}

TEST(Printer, RendersCastLoadReduce) {
  TensorRef T = makeTensor("t", {16}, DataType::u8());
  IterVar I = makeAxis("i", 16);
  IterVar J = makeReduceAxis("j", 4);
  ExprRef E = makeReduce(ReduceKind::Sum,
                         makeCast(DataType::i32(), makeLoad(T, {makeVar(I)})),
                         {J});
  EXPECT_EQ(exprToString(E), "sum[j](i32(t[i]))");
}

} // namespace
