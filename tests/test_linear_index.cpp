//===- tests/test_linear_index.cpp - Affine index analysis tests ----------===//

#include "LinearIndexOracle.h"
#include "SpecConformance.h"
#include "ir/Printer.h"

#include <gtest/gtest.h>

using namespace unit;
using namespace unit::testutil;

namespace {

TEST(LinearIndex, SimpleAffine) {
  IterVar I = makeAxis("i", 16), J = makeAxis("j", 4);
  ExprRef E = makeVar(I) * makeIntImm(4) + makeVar(J);
  LinearDecomposition L = analyzeLinear(E, {I.get(), J.get()});
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
  LinearDecomposition L = analyzeLinear(E, {Inner.get()});
  ASSERT_TRUE(L.Valid);
  EXPECT_EQ(L.coeffOf(Inner.get()), 16);
  EXPECT_EQ(L.coeffOf(X.get()), 0);
  EXPECT_EQ(exprToString(L.Base), "x * 64");
}

TEST(LinearIndex, SubtractionNegatesCoeffs) {
  IterVar I = makeAxis("i", 8);
  ExprRef E = makeIntImm(100) - makeVar(I) * makeIntImm(3);
  LinearDecomposition L = analyzeLinear(E, {I.get()});
  ASSERT_TRUE(L.Valid);
  EXPECT_EQ(L.coeffOf(I.get()), -3);
}

TEST(LinearIndex, CancellingTermsDropOut) {
  IterVar I = makeAxis("i", 8);
  ExprRef E = makeVar(I) - makeVar(I);
  LinearDecomposition L = analyzeLinear(E, {I.get()});
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
  LinearDecomposition L = analyzeLinear(E, {I.get()});
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
  LinearDecomposition L = analyzeLinear(E, {I.get()});
  ASSERT_TRUE(L.Valid);
  EXPECT_EQ(L.coeffOf(I.get()), 1);
}

TEST(LinearIndex, NestedSplitReconstruction) {
  // The exact shape Schedule::resolve produces: xo*16 + (xm*4 + xi).
  IterVar Xo = makeAxis("xo", 2), Xm = makeAxis("xm", 4), Xi = makeAxis("xi", 4);
  ExprRef E =
      makeVar(Xo) * makeIntImm(16) + (makeVar(Xm) * makeIntImm(4) + makeVar(Xi));
  LinearDecomposition L = analyzeLinear(E, {Xi.get()});
  ASSERT_TRUE(L.Valid);
  EXPECT_EQ(L.coeffOf(Xi.get()), 1);
  LinearDecomposition L2 = analyzeLinear(E, {Xo.get(), Xm.get(), Xi.get()});
  EXPECT_EQ(L2.coeffOf(Xo.get()), 16);
  EXPECT_EQ(L2.coeffOf(Xm.get()), 4);
}

/// analyzeLinearCoeffs of \p Load reports the oracle's Valid and
/// coefficients for its flat index.
void expectCoeffsMatchOracle(const LoadNode *Load,
                             const std::set<const IterVarNode *> &Targets,
                             const std::string &What) {
  LinearIndex Got = analyzeLinearCoeffs(Load, Targets);
  LinearDecomposition Want =
      analyzeLinear(flattenIndex(Load->Buf, Load->Indices), Targets);
  EXPECT_EQ(Got.Valid, Want.Valid) << What;
  EXPECT_EQ(Got.Coeffs, Want.Coeffs) << What;
}

TEST(LinearIndex, CoeffsFollowTheBaseFolding) {
  // A product scales by its constant side only when that side's Base
  // folds to an immediate under makeBinary, including `x * 0`. The nodes
  // are built unfolded, so only the analysis folds them.
  using K = ExprNode::Kind;
  auto Raw = [](K Op, ExprRef L, ExprRef R) -> ExprRef {
    DataType DType = L->dtype();
    return std::make_shared<BinaryNode>(Op, std::move(L), std::move(R), DType);
  };
  IterVar X = makeAxis("x", 8), I = makeAxis("i", 4), J = makeAxis("j", 4);
  TensorRef T = makeTensor("t", {1024}, DataType::i32());
  ExprRef Xv = makeVar(X), Iv = makeVar(I), Jv = makeVar(J);
  ExprRef C0 = makeIntImm(0), C1 = makeIntImm(1), C2 = makeIntImm(2),
          C3 = makeIntImm(3);
  const std::vector<std::pair<ExprRef, bool>> Cases = {
      {Raw(K::Mul, Raw(K::Add, C2, C3), Iv), true},
      {Raw(K::Mul, Raw(K::Mul, Xv, C0), Iv), true},
      {Raw(K::Mul, Raw(K::Mul, C0, Xv), Iv), true},
      {Raw(K::Mul, Raw(K::Mul, Iv, C0), Jv), true},
      {Raw(K::Mul, Raw(K::Sub, Iv, Iv), Jv), true},
      {Raw(K::Mul, Raw(K::Add, C3, Raw(K::Sub, C2, C2)), Iv), true},
      {Raw(K::Sub, Raw(K::Mul, C3, Raw(K::Add, Iv, Xv)), Jv), true},
      {Raw(K::Mul, Raw(K::Mul, Xv, C1), Iv), false},
      {Raw(K::Mul, Raw(K::Sub, Xv, C0), Iv), false},
      {Raw(K::Mul, Raw(K::Sub, C0, Xv), Iv), false},
      {Raw(K::Mul, Raw(K::Sub, Xv, Xv), Iv), false},
      {Raw(K::Mul, Raw(K::Mul, Raw(K::Add, Iv, C3), C2), Jv), false},
      {Raw(K::Mul, Raw(K::Div, Xv, C2), Iv), false},
  };
  for (const auto &[E, Valid] : Cases) {
    ExprRef Load = makeLoad(T, {E});
    EXPECT_EQ(analyzeLinearCoeffs(cast<LoadNode>(Load), {I.get(), J.get()})
                  .Valid,
              Valid)
        << exprToString(E);
    expectCoeffsMatchOracle(cast<LoadNode>(Load), {I.get(), J.get()},
                            exprToString(E));
  }
}

TEST(LinearIndex, CoeffsMatchTheOracleOverTheZooAndTheShippedInstructions) {
  std::vector<ConvLayer> Layers;
  std::set<std::string> Seen;
  for (const Model &M : paperModels())
    for (const ConvLayer &L : M.Convs)
      if (!L.Depthwise && Seen.insert(L.shapeKey()).second)
        Layers.push_back(L);

  // Every load of every laid-out zoo op, over each match's mapped axes.
  std::map<std::string, TensorIntrinsicRef> Instructions;
  size_t Loads = 0;
  for (const std::string &Id : shippedTargetIds()) {
    TargetSpec Spec = TargetRegistry::instance().specFor(Id);
    for (const TensorIntrinsicRef &Intr :
         TargetRegistry::instance().get(Id)->intrinsics())
      Instructions.emplace(Intr->name(), Intr);
    for (const ConvLayer &L : Layers)
      for (const TunedView &View : tunedConvViews(Spec, L)) {
        std::vector<const AxisMapping *> Mappings = {&View.Match.Mapping};
        for (const AxisMapping &Alt : View.Match.Alternatives)
          Mappings.push_back(&Alt);
        for (const AxisMapping *Mapping : Mappings) {
          std::set<const IterVarNode *> Mapped;
          for (const auto &[OpAxis, InstrAxis] : Mapping->Pairs)
            Mapped.insert(OpAxis.get());
          for (const LoadNode *Load : collectLoads(View.Op->body())) {
            expectCoeffsMatchOracle(Load, Mapped, Id + " " + L.Name);
            ++Loads;
          }
        }
      }
  }
  EXPECT_GT(Loads, Layers.size());

  // Every register load of the shipped instructions, over all their axes.
  EXPECT_EQ(Instructions.size(), 12u);
  for (const auto &[Name, Intr] : Instructions) {
    const ComputeOp &Sem = *Intr->semantics();
    std::set<const IterVarNode *> Axes;
    for (const IterVar &IV : Sem.allAxes())
      Axes.insert(IV.get());
    for (const LoadNode *Load : collectLoads(Sem.body()))
      expectCoeffsMatchOracle(Load, Axes, Name);
  }
}

} // namespace
