//===- tests/test_lower.cpp - Lowering to tensor IR tests -----------------===//

#include "TestUtil.h"
#include "core/Pipeline.h"
#include "tir/Lower.h"
#include "tir/StmtVisitor.h"
#include "tir/TIRPrinter.h"
#include "tir/Verify.h"

#include <gtest/gtest.h>

using namespace unit;
using namespace unit::testutil;

namespace {

/// Collects loop variables in nesting order and counts node kinds.
struct Walker : StmtVisitor {
  std::vector<std::string> LoopNames;
  int Stores = 0, Ifs = 0, Pragmas = 0;

  void visitFor(const ForNode *N) override {
    LoopNames.push_back(N->LoopVar->name());
    StmtVisitor::visitFor(N);
  }
  void visitStore(const StoreNode *) override { ++Stores; }
  void visitIfThenElse(const IfThenElseNode *N) override {
    ++Ifs;
    StmtVisitor::visitIfThenElse(N);
  }
  void visitPragma(const PragmaNode *N) override {
    ++Pragmas;
    StmtVisitor::visitPragma(N);
  }
};

/// The reorganized VNNI plan of \p F, as the Rewriter leaves it.
TensorizePlan vnniPlan(const OpFixture &F) {
  std::optional<MatchResult> M = inspect(
      F.Op, IntrinsicRegistry::instance().lookup("vnni.vpdpbusd"));
  return reorganizeLoops(F.Op, M.value());
}

TEST(Lower, ReductionEmitsInitAndMainNest) {
  OpFixture F = makeMatmulU8I8(4, 4, 8);
  Schedule S(F.Op);
  StmtRef L = lower(S);
  ASSERT_TRUE(isa<SeqNode>(L));
  Walker W;
  W.visit(L);
  // Init nest: i j; main nest: i j k.
  EXPECT_EQ(W.LoopNames,
            (std::vector<std::string>{"i", "j", "i", "j", "k"}));
  EXPECT_EQ(W.Stores, 2);
}

TEST(Lower, ElementwiseHasNoInitNest) {
  TensorRef In = makeTensor("in", {32}, DataType::i32());
  TensorRef Out = makeTensor("out", {32}, DataType::i32());
  IterVar I = makeAxis("i", 32);
  ExprRef Body = makeBinary(ExprNode::Kind::Max, makeLoad(In, {makeVar(I)}),
                            makeIntImm(0));
  ComputeOpRef Op = ComputeOp::create("relu", Out, {I}, Body);
  Schedule S(Op);
  StmtRef L = lower(S);
  Walker W;
  W.visit(L);
  EXPECT_EQ(W.LoopNames, std::vector<std::string>{"i"});
  EXPECT_EQ(W.Stores, 1);
}

TEST(Lower, VerifiesClean) {
  OpFixture F = makeConv2D(8, 8, 8, 16, 3, 3);
  Schedule S(F.Op);
  StmtRef L = lower(S);
  VerifyResult R = verifyTIR(L);
  EXPECT_TRUE(R.ok()) << R.Error;
}

TEST(Lower, ScheduledLoopOrderFollowsLeaves) {
  OpFixture F = makeMatmulU8I8(16, 16, 64);
  Schedule S(F.Op);
  IterVar I = F.Op->axes()[0], J = F.Op->axes()[1];
  IterVar K = F.Op->reduceAxes()[0];
  auto [Jo, Ji] = S.split(J, 4);
  S.reorder({Jo, K, Ji}); // j.o above k above j.i
  StmtRef L = lower(S);
  Walker W;
  W.visit(L);
  // Init (i, j) then main (i, j.o, k, j.i).
  EXPECT_EQ(W.LoopNames, (std::vector<std::string>{"i", "j", "i", "j.o",
                                                   "k", "j.i"}));
}

TEST(Lower, ResidueGuardEmitsLikely) {
  OpFixture F = makeMatmulU8I8(10, 16, 64);
  Schedule S(F.Op);
  S.split(F.Op->axes()[0], 4);
  StmtRef L = lower(S);
  Walker W;
  W.visit(L);
  EXPECT_EQ(W.Ifs, 1);
  std::string Text = stmtToString(L);
  EXPECT_NE(Text.find("likely(lt(i.o * 4 + i.i, 10))"), std::string::npos)
      << Text;
}

TEST(Lower, GuardedProgramStillVerifies) {
  OpFixture F = makeMatmulU8I8(10, 16, 64);
  Schedule S(F.Op);
  S.split(F.Op->axes()[0], 4);
  EXPECT_TRUE(verifyTIR(lower(S)).ok());
}

TEST(Lower, PragmaMaterializes) {
  OpFixture F = makeMatmulU8I8(16, 16, 64);
  Schedule S(F.Op);
  S.pragma(F.Op->reduceAxes()[0], "tensorize", "vnni.vpdpbusd");
  Walker W;
  W.visit(lower(S));
  EXPECT_EQ(W.Pragmas, 1);
}

TEST(Lower, AnnotationsCarryToForKind) {
  OpFixture F = makeMatmulU8I8(16, 16, 64);
  Schedule S(F.Op);
  S.parallel(F.Op->axes()[0]);
  S.unroll(F.Op->axes()[1]);
  StmtRef L = lower(S);
  std::string Text = stmtToString(L);
  EXPECT_NE(Text.find("// parallel"), std::string::npos);
  EXPECT_NE(Text.find("// unroll"), std::string::npos);
}

TEST(Lower, FlattensMultiDimAccess) {
  OpFixture F = makeConv2D(4, 4, 4, 4, 1, 1);
  Schedule S(F.Op);
  std::string Text = stmtToString(lower(S));
  // b has shape (1,1,4,4) with strides (16,16,4,1).
  EXPECT_NE(Text.find("b[r * 16 + s * 16 + k * 4 + rc]"), std::string::npos)
      << Text;
  VerifyResult R = verifyTIR(lower(S));
  EXPECT_TRUE(R.ok()) << R.Error;
}

TEST(Lower, InPlaceUpdateSkipsInit) {
  // A wmma-style += op must not zero its accumulator.
  TensorRef A = makeTensor("a", {4, 4}, DataType::f16());
  TensorRef B = makeTensor("b", {4, 4}, DataType::f16());
  TensorRef C = makeTensor("c", {4, 4}, DataType::f32());
  IterVar I = makeAxis("i", 4), J = makeAxis("j", 4);
  IterVar K = makeReduceAxis("k", 4);
  ExprRef Prod =
      makeCast(DataType::f32(), makeLoad(A, {makeVar(I), makeVar(K)})) *
      makeCast(DataType::f32(), makeLoad(B, {makeVar(K), makeVar(J)}));
  ExprRef Init = makeLoad(C, {makeVar(I), makeVar(J)});
  ComputeOpRef Op = ComputeOp::create(
      "mma", C, {I, J}, makeReduce(ReduceKind::Sum, Prod, {K}, Init),
      /*InPlaceUpdate=*/true);
  Schedule S(Op);
  StmtRef L = lower(S);
  EXPECT_FALSE(isa<SeqNode>(L)) << "no separate init nest expected";
  Walker W;
  W.visit(L);
  EXPECT_EQ(W.Stores, 1);
}

TEST(Lower, TensorizeRegionIsLeftForTheReplacer) {
  OpFixture F = makeConv2D(8, 8, 8, 16, 3, 3);
  TensorizePlan Plan = vnniPlan(F);
  // x has extent 6: a split by 4 leaves a residue, which a scalar
  // lowering would guard.
  Plan.Sched->split(F.Op->axes()[0], 4);
  const Schedule &S = *Plan.Sched;
  StmtRef L = lower(S);
  ASSERT_TRUE(isa<SeqNode>(L));
  const std::vector<StmtRef> &Parts = cast<SeqNode>(L)->Stmts;
  ASSERT_EQ(Parts.size(), 2u);

  // The init nest is the one every schedule of the op gets.
  StmtRef Default = lower(Schedule(F.Op));
  ASSERT_TRUE(isa<SeqNode>(Default));
  EXPECT_EQ(stmtToString(Parts[0]),
            stmtToString(cast<SeqNode>(Default)->Stmts[0]));

  // The main nest: the loops above the pragma leaf around an empty
  // region, with no store and no guard.
  std::vector<std::string> Outer;
  for (const IterVar &Leaf : S.leaves()) {
    if (!S.pragmas(Leaf).empty())
      break;
    Outer.push_back(Leaf->name());
  }
  ASSERT_LT(Outer.size(), S.leaves().size());
  Walker W;
  W.visit(Parts[1]);
  EXPECT_EQ(W.LoopNames, Outer);
  EXPECT_EQ(W.Stores, 0);
  EXPECT_EQ(W.Ifs, 0);
  EXPECT_EQ(W.Pragmas, 1);
  std::string Text = stmtToString(Parts[1]);
  EXPECT_EQ(Text.substr(Text.rfind('\n', Text.size() - 2) + 1),
            std::string(Outer.size() * 2, ' ') +
                "#pragma tensorize vnni.vpdpbusd\n")
      << Text;

  // The Replacer fills the region and re-establishes the guard.
  Walker Filled;
  Filled.visit(lowerPlan(Plan));
  EXPECT_EQ(Filled.Pragmas, 0);
  EXPECT_EQ(Filled.Stores, 2);
  EXPECT_EQ(Filled.Ifs, 1);
}

TEST(Verify, CatchesUnfilledTensorizeRegion) {
  OpFixture F = makeConv2D(8, 8, 8, 16, 3, 3);
  TensorizePlan Plan = vnniPlan(F);
  VerifyResult R = verifyTIR(lower(*Plan.Sched));
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("'vnni.vpdpbusd'"), std::string::npos) << R.Error;
  R = verifyTIR(lowerPlan(Plan));
  EXPECT_TRUE(R.ok()) << R.Error;
}

TEST(Verify, CatchesUnflattenedLoad) {
  TensorRef T = makeTensor("t", {4, 4}, DataType::i32());
  IterVar I = makeAxis("i", 4);
  // Hand-built bad IR: a 2-D load straight into a store.
  ExprRef Bad = makeLoad(T, {makeVar(I), makeIntImm(0)});
  StmtRef St = makeStore(T, makeVar(I), Bad);
  StmtRef L = makeFor(I, ForKind::Serial, St);
  VerifyResult R = verifyTIR(L);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("not flattened"), std::string::npos);
}

TEST(Verify, CatchesOutOfScopeVar) {
  TensorRef T = makeTensor("t", {4}, DataType::i32());
  IterVar I = makeAxis("i", 4), J = makeAxis("j", 4);
  StmtRef St = makeStore(T, makeVar(J), makeIntImm(0));
  StmtRef L = makeFor(I, ForKind::Serial, St);
  VerifyResult R = verifyTIR(L);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("outside its loop"), std::string::npos);
}

} // namespace
