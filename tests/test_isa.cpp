//===- tests/test_isa.cpp - Intrinsic registry and emulation tests --------===//

#include "interp/Interp.h"
#include "ir/ExprUtil.h"
#include "isa/Intrinsics.h"
#include "isa/TensorIntrinsic.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace unit;

namespace {

TEST(Registry, BuiltinsPresent) {
  IntrinsicRegistry &R = IntrinsicRegistry::instance();
  EXPECT_NE(R.lookup("vnni.vpdpbusd"), nullptr);
  EXPECT_NE(R.lookup("avx512.vpdpwssd"), nullptr);
  EXPECT_NE(R.lookup("arm.sdot"), nullptr);
  EXPECT_NE(R.lookup("arm.udot"), nullptr);
  EXPECT_NE(R.lookup("wmma.m16n16k16.f16"), nullptr);
  EXPECT_NE(R.lookup("wmma.m16n16k16.s8"), nullptr);
  EXPECT_EQ(R.lookup("no.such.instruction"), nullptr);
}

TEST(Registry, TargetFilter) {
  IntrinsicRegistry &R = IntrinsicRegistry::instance();
  for (const auto &I : R.forTarget("x86"))
    EXPECT_EQ(I->target(), "x86");
  EXPECT_GE(R.forTarget("x86").size(), 2u);
  EXPECT_GE(R.forTarget("arm").size(), 2u);
  EXPECT_GE(R.forTarget("nvgpu").size(), 2u);
}

TEST(Intrinsic, VNNIShape) {
  TensorIntrinsicRef I = IntrinsicRegistry::instance().lookup("vnni.vpdpbusd");
  EXPECT_EQ(I->outputLanes(), 16);
  EXPECT_EQ(I->reduceWidth(), 4);
  EXPECT_FALSE(I->accumulatesInPlace());
  EXPECT_EQ(I->semantics()->inputs().size(), 3u); // a, b, c
  EXPECT_EQ(I->cost().MacsPerInstr, 64.0);
}

TEST(Intrinsic, WMMAShape) {
  TensorIntrinsicRef I =
      IntrinsicRegistry::instance().lookup("wmma.m16n16k16.f16");
  EXPECT_EQ(I->outputLanes(), 256);
  EXPECT_EQ(I->reduceWidth(), 16);
  EXPECT_TRUE(I->accumulatesInPlace());
  EXPECT_EQ(I->semantics()->inputs().size(), 2u); // a, b (c is in-place)
}

TEST(Intrinsic, SdotShape) {
  TensorIntrinsicRef I = IntrinsicRegistry::instance().lookup("arm.sdot");
  EXPECT_EQ(I->outputLanes(), 4);
  EXPECT_EQ(I->reduceWidth(), 4);
}

TEST(Intrinsic, LaneLayoutsComeFromTheSemantics) {
  TensorIntrinsicRef I = IntrinsicRegistry::instance().lookup("vnni.vpdpbusd");
  const ComputeOp &Sem = *I->semantics();
  const IterVar &Lane = Sem.axes()[0];      // i, 16 lanes
  const IterVar &Dot = Sem.reduceAxes()[0]; // j, 4-wide dot
  for (const LoadNode *Load : collectLoads(Sem.body())) {
    const RegisterLayout &L = I->laneLayout(Load);
    EXPECT_EQ(L.Load, Load);
    EXPECT_EQ(&I->laneLayout(Load), &L); // Stored, not recomputed.
    if (Load->Buf == Sem.inputs()[2]) {  // c[i]
      ASSERT_EQ(L.Axes.size(), 1u);
      EXPECT_EQ(L.Axes[0].InstrAxis, Lane);
      EXPECT_EQ(L.Lanes, 16);
      continue;
    }
    // a[i*4+j] and b[i*4+j]: i is the slower axis.
    ASSERT_EQ(L.Axes.size(), 2u);
    EXPECT_EQ(L.Axes[0].InstrAxis, Lane);
    EXPECT_EQ(L.Axes[0].LaneCoeff, 4);
    EXPECT_EQ(L.Axes[1].InstrAxis, Dot);
    EXPECT_EQ(L.Axes[1].LaneCoeff, 1);
    EXPECT_EQ(L.Lanes, 64);
  }
  ASSERT_EQ(I->outputLayout().Axes.size(), 1u);
  EXPECT_EQ(I->outputLayout().Axes[0].InstrAxis, Lane);
  EXPECT_EQ(I->outputLayout().Lanes, 16);
}

TEST(Intrinsic, NonAffineRegisterAccessDies) {
  IterVar Lane = makeAxis("i", 4);
  TensorRef A = makeTensor("a", {2}, DataType::i32());
  TensorRef D = makeTensor("d", {4}, DataType::i32());
  ComputeOpRef Sem = ComputeOp::create(
      "halve", D, {Lane}, makeLoad(A, {makeVar(Lane) / makeIntImm(2)}));
  EXPECT_DEATH(TensorIntrinsic("t.halve", "t.halve", "t", Sem, {}),
               "instruction access is not affine");
}

/// Emulates one vpdpbusd call through the interpreter and checks it
/// against scalar reference arithmetic.
TEST(Emulation, VpdpbusdBitExact) {
  SplitMix64 Rng(11);
  std::vector<int64_t> A(64), B(64), C(16);
  for (auto &V : A)
    V = Rng.uniform(0, 255); // u8
  for (auto &V : B)
    V = Rng.uniform(-128, 127); // i8
  for (auto &V : C)
    V = Rng.uniform(-100000, 100000); // i32 accumulator

  std::vector<ExprRef> Args;
  auto VecImm = [](const std::vector<int64_t> &Vals, DataType DT) {
    std::vector<ExprRef> Parts;
    for (int64_t V : Vals)
      Parts.push_back(makeIntImm(V, DT));
    return makeConcat(Parts);
  };
  Args.push_back(VecImm(A, DataType::u8()));
  Args.push_back(VecImm(B, DataType::i8()));
  Args.push_back(VecImm(C, DataType::i32()));

  ExprRef Call = makeCall("vnni.vpdpbusd", CallKind::Tensorized,
                          std::move(Args), DataType::i32(16));
  Interp In;
  Value Out = In.eval(Call);
  ASSERT_EQ(Out.lanes(), 16u);
  for (int I = 0; I < 16; ++I) {
    int64_t Acc = C[I];
    for (int J = 0; J < 4; ++J)
      Acc += A[I * 4 + J] * B[I * 4 + J];
    Acc = static_cast<int32_t>(Acc); // i32 wraparound
    EXPECT_EQ(Out.Ints[I], Acc) << "lane " << I;
  }
}

TEST(Emulation, SdotBitExact) {
  SplitMix64 Rng(13);
  std::vector<int64_t> A(16), B(16), C(4);
  for (auto &V : A)
    V = Rng.uniform(-128, 127);
  for (auto &V : B)
    V = Rng.uniform(-128, 127);
  for (auto &V : C)
    V = Rng.uniform(-1000, 1000);

  auto VecImm = [](const std::vector<int64_t> &Vals, DataType DT) {
    std::vector<ExprRef> Parts;
    for (int64_t V : Vals)
      Parts.push_back(makeIntImm(V, DT));
    return makeConcat(Parts);
  };
  ExprRef Call = makeCall("arm.sdot", CallKind::Tensorized,
                          {VecImm(A, DataType::i8()), VecImm(B, DataType::i8()),
                           VecImm(C, DataType::i32())},
                          DataType::i32(4));
  Interp In;
  Value Out = In.eval(Call);
  for (int I = 0; I < 4; ++I) {
    int64_t Acc = C[I];
    for (int J = 0; J < 4; ++J)
      Acc += A[I * 4 + J] * B[I * 4 + J];
    EXPECT_EQ(Out.Ints[I], Acc);
  }
}

TEST(Emulation, WmmaF16AccumulatesInPlace) {
  SplitMix64 Rng(17);
  std::vector<double> A(256), B(256), C(256);
  for (auto &V : A)
    V = fp16RoundToNearest(static_cast<float>(Rng.uniformReal() - 0.5));
  for (auto &V : B)
    V = fp16RoundToNearest(static_cast<float>(Rng.uniformReal() - 0.5));
  for (auto &V : C)
    V = static_cast<float>(Rng.uniformReal());

  auto VecImm = [](const std::vector<double> &Vals, DataType DT) {
    std::vector<ExprRef> Parts;
    for (double V : Vals)
      Parts.push_back(makeFloatImm(V, DT));
    return makeConcat(Parts);
  };
  // In-place convention: inputs a, b then current accumulator appended.
  ExprRef Call = makeCall("wmma.m16n16k16.f16", CallKind::Tensorized,
                          {VecImm(A, DataType::f16()),
                           VecImm(B, DataType::f16()),
                           VecImm(C, DataType::f32())},
                          DataType::f32(256));
  Interp In;
  Value Out = In.eval(Call);
  ASSERT_EQ(Out.lanes(), 256u);
  for (int I = 0; I < 16; ++I)
    for (int J = 0; J < 16; ++J) {
      float Acc = static_cast<float>(C[I * 16 + J]);
      for (int K = 0; K < 16; ++K)
        Acc += static_cast<float>(A[I * 16 + K]) *
               static_cast<float>(B[K * 16 + J]);
      EXPECT_FLOAT_EQ(static_cast<float>(Out.Floats[I * 16 + J]), Acc);
    }
}

TEST(Emulation, WrongArgCountDies) {
  ExprRef Call = makeCall("vnni.vpdpbusd", CallKind::Tensorized,
                          {makeIntImm(0)}, DataType::i32(16));
  Interp In;
  EXPECT_DEATH(In.eval(Call), "wrong argument count");
}

TEST(Emulation, UnknownIntrinsicDies) {
  ExprRef Call =
      makeCall("bogus.instr", CallKind::Tensorized, {}, DataType::i32(4));
  Interp In;
  EXPECT_DEATH(In.eval(Call), "unregistered tensorized instruction");
}

TEST(Registry, DuplicateRegistrationDies) {
  EXPECT_DEATH(IntrinsicRegistry::instance().add(makeVNNIVpdpbusd()),
               "registered twice");
}

} // namespace

namespace {

TEST(Registry, NarrowVnniVariantsPresent) {
  IntrinsicRegistry &R = IntrinsicRegistry::instance();
  TensorIntrinsicRef V256 = R.lookup("vnni.vpdpbusd.256");
  TensorIntrinsicRef V128 = R.lookup("vnni.vpdpbusd.128");
  ASSERT_NE(V256, nullptr);
  ASSERT_NE(V128, nullptr);
  EXPECT_EQ(V256->outputLanes(), 8);
  EXPECT_EQ(V128->outputLanes(), 4);
  EXPECT_EQ(V256->reduceWidth(), 4);
}

TEST(Emulation, Vpdpbusd128BitExact) {
  SplitMix64 Rng(19);
  std::vector<int64_t> A(16), B(16), C(4);
  for (auto &V : A)
    V = Rng.uniform(0, 255);
  for (auto &V : B)
    V = Rng.uniform(-128, 127);
  for (auto &V : C)
    V = Rng.uniform(-1000, 1000);
  auto VecImm = [](const std::vector<int64_t> &Vals, DataType DT) {
    std::vector<ExprRef> Parts;
    for (int64_t V : Vals)
      Parts.push_back(makeIntImm(V, DT));
    return makeConcat(Parts);
  };
  ExprRef Call = makeCall("vnni.vpdpbusd.128", CallKind::Tensorized,
                          {VecImm(A, DataType::u8()), VecImm(B, DataType::i8()),
                           VecImm(C, DataType::i32())},
                          DataType::i32(4));
  Interp In;
  Value Out = In.eval(Call);
  for (int I = 0; I < 4; ++I) {
    int64_t Acc = C[I];
    for (int J = 0; J < 4; ++J)
      Acc += A[I * 4 + J] * B[I * 4 + J];
    EXPECT_EQ(Out.Ints[I], Acc);
  }
}

} // namespace
