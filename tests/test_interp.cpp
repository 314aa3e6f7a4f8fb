//===- tests/test_interp.cpp - Interpreter functional tests ---------------===//

#include "SpecConformance.h"
#include "TestUtil.h"
#include "core/Pipeline.h"
#include "interp/Interp.h"
#include "models/ModelZoo.h"
#include "tir/Lower.h"
#include "tir/TIRPrinter.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

using namespace unit;
using namespace unit::testutil;

namespace {

TEST(Interp, MatmulMatchesHandComputedReference) {
  OpFixture F = makeMatmulU8I8(3, 2, 4);
  SplitMix64 Rng(1);
  Buffer A(F.Inputs[0]), B(F.Inputs[1]), C(F.Output);
  A.fillRandom(Rng);
  B.fillRandom(Rng);
  Interp In;
  In.bind(F.Inputs[0], &A);
  In.bind(F.Inputs[1], &B);
  In.bind(F.Output, &C);
  Schedule S(F.Op);
  In.run(lower(S));

  for (int64_t I = 0; I < 3; ++I) {
    for (int64_t J = 0; J < 2; ++J) {
      int64_t Acc = 0;
      for (int64_t K = 0; K < 4; ++K)
        Acc += A.getInt(I * 4 + K) * B.getInt(J * 4 + K);
      EXPECT_EQ(C.getInt(I * 2 + J), Acc) << "at (" << I << "," << J << ")";
    }
  }
}

TEST(Interp, ConvMatchesHandComputedReference) {
  OpFixture F = makeConv2D(5, 5, 3, 2, 3, 3);
  SplitMix64 Rng(2);
  Buffer A(F.Inputs[0]), B(F.Inputs[1]), C(F.Output);
  A.fillRandom(Rng);
  B.fillRandom(Rng);
  Interp In;
  In.bind(F.Inputs[0], &A);
  In.bind(F.Inputs[1], &B);
  In.bind(F.Output, &C);
  Schedule S(F.Op);
  In.run(lower(S));

  auto AAt = [&](int64_t X, int64_t Y, int64_t Ch) {
    return A.getInt((X * 5 + Y) * 3 + Ch);
  };
  auto BAt = [&](int64_t R, int64_t Ss, int64_t K, int64_t Ch) {
    return B.getInt(((R * 3 + Ss) * 2 + K) * 3 + Ch);
  };
  for (int64_t X = 0; X < 3; ++X)
    for (int64_t Y = 0; Y < 3; ++Y)
      for (int64_t K = 0; K < 2; ++K) {
        int64_t Acc = 0;
        for (int64_t R = 0; R < 3; ++R)
          for (int64_t Ss = 0; Ss < 3; ++Ss)
            for (int64_t Ch = 0; Ch < 3; ++Ch)
              Acc += AAt(X + R, Y + Ss, Ch) * BAt(R, Ss, K, Ch);
        EXPECT_EQ(C.getInt((X * 3 + Y) * 2 + K), Acc);
      }
}

TEST(Interp, StridedConvReference) {
  OpFixture F = makeConv2D(9, 9, 4, 4, 3, 3, /*Stride=*/2);
  // Output is 4x4x4; cross-check one corner element by hand.
  std::vector<int64_t> Out = referenceInts(F, 7);
  EXPECT_EQ(Out.size(), 64u);
}

TEST(Interp, SplitScheduleBitExactVsDefault) {
  OpFixture F = makeMatmulU8I8(16, 16, 64);
  std::vector<int64_t> Ref = referenceInts(F, 3);

  Schedule S(F.Op);
  auto [Jo, Ji] = S.split(F.Op->axes()[1], 4);
  auto [Ko, Ki] = S.split(F.Op->reduceAxes()[0], 16);
  S.reorder({Jo, Ko, Ji, Ki});
  EXPECT_EQ(runToInts(F, lower(S), 3), Ref);
}

TEST(Interp, ImperfectSplitBitExactVsDefault) {
  OpFixture F = makeMatmulU8I8(10, 6, 20);
  std::vector<int64_t> Ref = referenceInts(F, 4);
  Schedule S(F.Op);
  S.split(F.Op->axes()[0], 4); // 10 % 4 != 0 -> guarded
  S.split(F.Op->reduceAxes()[0], 8); // 20 % 8 != 0 -> guarded
  EXPECT_EQ(runToInts(F, lower(S), 4), Ref);
}

TEST(Interp, FusedScheduleBitExactVsDefault) {
  OpFixture F = makeConv2D(6, 6, 4, 8, 3, 3);
  std::vector<int64_t> Ref = referenceInts(F, 5);
  Schedule S(F.Op);
  S.fuse(F.Op->axes()[0], F.Op->axes()[1]);
  EXPECT_EQ(runToInts(F, lower(S), 5), Ref);
}

TEST(Interp, ReorderReduceOutsideDataParBitExact) {
  OpFixture F = makeConv2D(6, 6, 4, 8, 3, 3);
  std::vector<int64_t> Ref = referenceInts(F, 6);
  Schedule S(F.Op);
  // Move the channel reduction above the spatial loops.
  S.reorder({F.Op->reduceAxes()[2], F.Op->axes()[0]});
  EXPECT_EQ(runToInts(F, lower(S), 6), Ref);
}

TEST(Interp, AnnotationsDoNotChangeSemantics) {
  OpFixture F = makeMatmulU8I8(8, 8, 16);
  std::vector<int64_t> Ref = referenceInts(F, 8);
  Schedule S(F.Op);
  S.parallel(F.Op->axes()[0]);
  S.unroll(F.Op->axes()[1]);
  EXPECT_EQ(runToInts(F, lower(S), 8), Ref);
}

TEST(Interp, F16GemmAccumulatesInF32) {
  OpFixture F = makeGemmF16(4, 4, 8);
  std::vector<double> Out = referenceFloats(F, 9);
  // Recompute with explicit fp16 rounding of inputs.
  SplitMix64 Rng(9);
  Buffer A(F.Inputs[0]), B(F.Inputs[1]);
  A.fillRandom(Rng);
  B.fillRandom(Rng);
  for (int64_t I = 0; I < 4; ++I)
    for (int64_t J = 0; J < 4; ++J) {
      float Acc = 0.0f;
      for (int64_t K = 0; K < 8; ++K)
        Acc += static_cast<float>(A.getFloat(I * 8 + K)) *
               static_cast<float>(B.getFloat(K * 4 + J));
      EXPECT_FLOAT_EQ(static_cast<float>(Out[I * 4 + J]), Acc);
    }
}

TEST(Interp, IntegerWraparoundIsTwosComplement) {
  // i8 x i8 sums overflowing i32 must wrap, not saturate.
  TensorRef A = makeTensor("a", {2}, DataType::i32());
  TensorRef Out = makeTensor("o", {2}, DataType::i32());
  IterVar I = makeAxis("i", 2);
  ExprRef Body = makeLoad(A, {makeVar(I)}) + makeLoad(A, {makeVar(I)});
  ComputeOpRef Op = ComputeOp::create("dbl", Out, {I}, Body);
  Buffer ABuf(A), OBuf(Out);
  ABuf.setInt(0, 0x7fffffff);
  ABuf.setInt(1, -2);
  Interp In;
  In.bind(A, &ABuf);
  In.bind(Out, &OBuf);
  Schedule S(Op);
  In.run(lower(S));
  EXPECT_EQ(OBuf.getInt(0), -2); // 0x7fffffff*2 wraps to -2.
  EXPECT_EQ(OBuf.getInt(1), -4);
}

TEST(Interp, VectorRampLoadStore) {
  TensorRef T = makeTensor("t", {8}, DataType::i32());
  Buffer Buf(T);
  for (int64_t I = 0; I < 8; ++I)
    Buf.setInt(I, I * 10);
  Interp In;
  In.bind(T, &Buf);
  Value V = In.eval(makeVectorLoad(T, makeRamp(makeIntImm(1), 2, 3)));
  ASSERT_EQ(V.lanes(), 3u);
  EXPECT_EQ(V.Ints, (std::vector<int64_t>{10, 30, 50}));
}

TEST(Interp, BroadcastTileRepeat) {
  TensorRef T = makeTensor("t", {4}, DataType::i32());
  Buffer Buf(T);
  for (int64_t I = 0; I < 4; ++I)
    Buf.setInt(I, I);
  Interp In;
  In.bind(T, &Buf);
  Value V = In.eval(
      makeBroadcast(makeVectorLoad(T, makeRamp(makeIntImm(0), 1, 2)), 3));
  EXPECT_EQ(V.Ints, (std::vector<int64_t>{0, 1, 0, 1, 0, 1}));
}

TEST(Interp, ConcatLanes) {
  Interp In;
  Value V = In.eval(makeConcat(
      {makeRamp(makeIntImm(0), 1, 2), makeRamp(makeIntImm(10), 1, 2)}));
  EXPECT_EQ(V.Ints, (std::vector<int64_t>{0, 1, 10, 11}));
}

TEST(Interp, ConcurrentTensorizedRunsAreBitExact) {
  // Two threads interpret a VNNI-tensorized kernel at once, from a cold
  // cache of lowered instruction semantics, which they then share.
  OpFixture F = makeConv2D(6, 6, 8, 16, 3, 3);
  std::optional<CompiledKernel> K = compileWithIntrinsic(
      F.Op, IntrinsicRegistry::instance().lookup("vnni.vpdpbusd"));
  ASSERT_TRUE(K.has_value());

  constexpr int Threads = 2, Runs = 6;
  std::vector<std::vector<int64_t>> Refs;
  for (int T = 0; T < Threads; ++T) {
    SplitMix64 Rng(40 + T);
    Buffer A(F.Inputs[0]), B(F.Inputs[1]), C(F.Output);
    A.fillRandom(Rng);
    B.fillRandom(Rng);
    runComputeOpReference(
        F.Op, {{F.Inputs[0], &A}, {F.Inputs[1], &B}, {F.Output, &C}});
    std::vector<int64_t> Out;
    for (int64_t I = 0; I < C.size(); ++I)
      Out.push_back(C.getInt(I));
    Refs.push_back(std::move(Out));
  }

  std::atomic<int> Ready{0};
  std::atomic<int> Mismatched{0};
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      ++Ready;
      while (Ready < Threads)
        std::this_thread::yield();
      for (int R = 0; R < Runs; ++R)
        if (runToInts(F, K->TIR, 40 + T) != Refs[T])
          ++Mismatched;
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(Mismatched, 0);
}

TEST(Interp, ConcurrentLoweringsOfZooWinnersPrintTheSameTIR) {
  // Two threads lower the same tuned plans at once: they read the plans,
  // their schedules and matches, and share the small immediates every
  // lowering hands out (makeIntImm), whose reference counts both threads
  // move. Each thread must print exactly the TIR of a serial lowering.
  std::vector<TensorizePlan> Plans;
  std::vector<std::string> Serial;
  for (const std::string Id : {"x86", "nvgpu"}) {
    TargetSpec Spec = TargetRegistry::instance().specFor(Id);
    bool Cpu = Spec.Engine == TargetSpec::EngineKind::CpuDot;
    size_t Layers = 0;
    for (const ConvLayer &L : makeResnet18().Convs) {
      if (L.Depthwise || ++Layers > 4)
        continue;
      for (const TunedView &View : tunedConvViews(Spec, L)) {
        TunedKernel Tuned = Cpu ? tuneCpu(View.Op, View.Match, Spec.Cpu)
                                : tuneGpu(View.Op, View.Match, Spec.Gpu);
        ASSERT_GE(Tuned.BestCandidateIndex, 0) << Id << " " << L.Name;
        auto Best = static_cast<size_t>(Tuned.BestCandidateIndex);
        Plans.push_back(Cpu ? buildCpuPlan(View.Op, View.Match,
                                           defaultCpuTuningPairs()[Best])
                            : buildGpuPlan(View.Op, View.Match,
                                           defaultGpuTuningConfigs()[Best]));
        Serial.push_back(stmtToString(lowerPlan(Plans.back())));
      }
    }
  }
  ASSERT_GE(Plans.size(), 8u);

  constexpr int Threads = 2, Rounds = 3;
  std::atomic<int> Ready{0};
  std::vector<std::vector<std::string>> Printed(Threads);
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      ++Ready;
      while (Ready < Threads)
        std::this_thread::yield();
      for (int R = 0; R < Rounds; ++R)
        for (const TensorizePlan &Plan : Plans)
          Printed[T].push_back(stmtToString(lowerPlan(Plan)));
    });
  for (std::thread &T : Pool)
    T.join();
  for (int T = 0; T < Threads; ++T) {
    ASSERT_EQ(Printed[T].size(), Rounds * Plans.size());
    for (size_t I = 0; I < Printed[T].size(); ++I)
      EXPECT_EQ(Printed[T][I], Serial[I % Plans.size()])
          << "thread " << T << ", lowering " << I;
  }
}

} // namespace
