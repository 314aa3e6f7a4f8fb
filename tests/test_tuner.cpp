//===- tests/test_tuner.cpp - Tuner behaviour tests ------------------------===//

#include "TestUtil.h"
#include "core/Inspector.h"
#include "core/Pipeline.h"
#include "graph/Layout.h"
#include "graph/Quantize.h"
#include "tir/Lower.h"
#include "tuner/Tuner.h"
#include "target/TargetRegistry.h"

#include <gtest/gtest.h>

using namespace unit;
using namespace unit::testutil;

namespace {

MatchResult matchVnni(const ComputeOpRef &Op) {
  TensorIntrinsicRef Vnni =
      IntrinsicRegistry::instance().lookup("vnni.vpdpbusd");
  std::optional<MatchResult> M = inspect(Op, Vnni);
  EXPECT_TRUE(M.has_value());
  return *M;
}

MatchResult matchWmma(const ComputeOpRef &Op) {
  TensorIntrinsicRef W =
      IntrinsicRegistry::instance().lookup("wmma.m16n16k16.f16");
  std::optional<MatchResult> M = inspect(Op, W);
  EXPECT_TRUE(M.has_value());
  return *M;
}

TEST(TuningSpace, CpuPairListStartsWithPaperDefault) {
  std::vector<CpuTuningPair> Pairs = defaultCpuTuningPairs();
  ASSERT_GE(Pairs.size(), 8u);
  EXPECT_EQ(Pairs[0].ParallelLimit, 3000);
  EXPECT_EQ(Pairs[0].UnrollFactor, 8);
}

TEST(TuningSpace, GpuConfigsStartGeneric) {
  std::vector<GpuTuningConfig> Configs = defaultGpuTuningConfigs();
  ASSERT_FALSE(Configs.empty());
  EXPECT_EQ(Configs[0].P, 2);
  EXPECT_EQ(Configs[0].SplitK, 1);
}

TEST(BuildCpuPlan, StructureFollowsFig7) {
  OpFixture F = makeConv2D(16, 16, 16, 64, 3, 3);
  TensorizePlan Plan = buildCpuPlan(F.Op, matchVnni(F.Op), {3000, 8});
  const Schedule &S = *Plan.Sched;
  // Exactly one parallel (fused) loop, at the outermost position.
  EXPECT_EQ(S.annotation(S.leaves().front()), ForKind::Parallel);
  // At least one unrolled loop sits below the reduce loops.
  bool SeenReduce = false, UnrolledBelowReduce = false;
  for (const IterVar &Leaf : S.leaves()) {
    if (Leaf->isReduce())
      SeenReduce = true;
    if (SeenReduce && !Leaf->isReduce() &&
        S.annotation(Leaf) == ForKind::Unrolled)
      UnrolledBelowReduce = true;
  }
  EXPECT_TRUE(UnrolledBelowReduce);
}

TEST(BuildCpuPlan, LoweredProgramStaysBitExact) {
  OpFixture F = makeConv2D(10, 10, 8, 32, 3, 3);
  std::vector<int64_t> Ref = referenceInts(F, 41);
  for (CpuTuningPair Pair :
       {CpuTuningPair{3000, 8}, CpuTuningPair{1500, 16},
        CpuTuningPair{750, 2}, CpuTuningPair{3000, 1}}) {
    TensorizePlan Plan = buildCpuPlan(F.Op, matchVnni(F.Op), Pair);
    StmtRef TIR = lowerPlan(Plan);
    EXPECT_EQ(runToInts(F, TIR, 41), Ref) << Pair.str();
  }
}

TEST(BuildCpuPlan, DivisorPreferenceAvoidsGuards) {
  // Output width 14: budget 8 -> exact divisor 7 -> no residue guards.
  OpFixture F = makeConv2D(16, 16, 8, 16, 3, 3);
  TensorizePlan Plan = buildCpuPlan(F.Op, matchVnni(F.Op), {3000, 8});
  EXPECT_TRUE(Plan.Sched->residuePredicates().empty());
}

TEST(BuildCpuPlan, PrimeExtentGetsGuardedUnroll) {
  // Output width 17 (prime): no usable divisor, guarded split.
  OpFixture F = makeConv2D(19, 19, 8, 16, 3, 3);
  TensorizePlan Plan = buildCpuPlan(F.Op, matchVnni(F.Op), {3000, 8});
  EXPECT_FALSE(Plan.Sched->residuePredicates().empty());
}

TEST(BuildGpuPlan, BindsBlocksAndSplitK) {
  ComputeOpRef Gemm = buildGemmOp(128, 128, 256, DataType::f16(),
                                  DataType::f32());
  TensorizePlan Plan = buildGpuPlan(Gemm, matchWmma(Gemm), {2, 4});
  const Schedule &S = *Plan.Sched;
  int Blocks = 0, Threads = 0, Unrolled = 0;
  for (const IterVar &Leaf : S.leaves()) {
    ForKind K = S.annotation(Leaf);
    Blocks += K == ForKind::GpuBlockX || K == ForKind::GpuBlockY;
    Threads += K == ForKind::GpuThreadX;
    Unrolled += K == ForKind::Unrolled;
  }
  EXPECT_EQ(Blocks, 2);
  EXPECT_EQ(Threads, 1);
  EXPECT_EQ(Unrolled, 2); // p x p accumulator tiles.
}

TEST(BuildGpuPlan, LoweredProgramStaysBitExact) {
  OpFixture F = makeGemmF16(32, 32, 64);
  std::vector<double> Ref = referenceFloats(F, 43);
  for (GpuTuningConfig Config :
       {GpuTuningConfig{1, 1}, GpuTuningConfig{2, 2}, GpuTuningConfig{2, 4}}) {
    TensorizePlan Plan = buildGpuPlan(F.Op, matchWmma(F.Op), Config);
    StmtRef TIR = lowerPlan(Plan);
    EXPECT_EQ(runToFloats(F, TIR, 43), Ref) << Config.str();
  }
}

TEST(TuneCpu, BestIsNoWorseThanDefault) {
  QuantScheme Scheme = TargetRegistry::instance().get("x86")->scheme();
  ConvLayer L;
  L.Name = "t";
  L.InC = 96;
  L.InH = L.InW = 16;
  L.OutC = 128;
  L.KH = L.KW = 3;
  LaidOutOp Laid = buildDirectConvOp(L, Scheme.Activation, Scheme.Weight,
                                     Scheme.Accumulator, 16, 4);
  CpuMachine Machine = CpuMachine::cascadeLake();
  MatchResult M = matchVnni(Laid.Op);
  TunedKernel Best = tuneCpu(Laid.Op, M, Machine);
  TensorizePlan Default = buildCpuPlan(Laid.Op, M, {3000, 8});
  double DefaultLatency =
      cpuLatencySeconds(analyzeTensorized(Default), Machine);
  EXPECT_LE(Best.LatencySeconds, DefaultLatency * 1.0001);
  EXPECT_EQ(Best.CandidatesTried,
            static_cast<int>(defaultCpuTuningPairs().size()));
  EXPECT_EQ(Best.CandidateLatencies.size(),
            static_cast<size_t>(Best.CandidatesTried));
}

TEST(TuneCpu, MaxCandidatesTruncates) {
  OpFixture F = makeConv2D(16, 16, 16, 32, 3, 3);
  CpuMachine Machine = CpuMachine::cascadeLake();
  TunerOptions Opts;
  Opts.MaxCandidates = 3;
  TunedKernel T = tuneCpu(F.Op, matchVnni(F.Op), Machine, nullptr, Opts);
  EXPECT_EQ(T.CandidatesTried, 3);
}

TEST(TuneGpu, DeepReductionNeedsExtraConcurrency) {
  // Few output tiles, deep reduction: the generic p=2 schedule cannot win;
  // the tuner must manufacture concurrency, either by splitting the
  // reduction (the paper's SplitK) or by shrinking the accumulation tile.
  ComputeOpRef Gemm = buildGemmOp(208, 512, 1024, DataType::f16(),
                                  DataType::f32());
  GpuMachine Machine = GpuMachine::v100();
  TunedKernel Best = tuneGpu(Gemm, matchWmma(Gemm), Machine);
  double Warps = Best.Stats.ParallelExtent * Best.Stats.SplitK;
  EXPECT_GT(Warps, 112.0); // More concurrency than the generic schedule.
  // And SplitK at fixed p=2 must beat no-SplitK at p=2.
  TensorizePlan NoSplit = buildGpuPlan(Gemm, matchWmma(Gemm), {2, 1});
  TensorizePlan Split = buildGpuPlan(Gemm, matchWmma(Gemm), {2, 4});
  EXPECT_LT(gpuLatencySeconds(analyzeTensorized(Split), Machine),
            gpuLatencySeconds(analyzeTensorized(NoSplit), Machine));
}

TEST(Ablation, CpuStagesImproveMonotonically) {
  OpFixture F = makeConv2D(16, 16, 16, 64, 3, 3);
  CpuMachine Machine = CpuMachine::cascadeLake();
  CpuAblation A = cpuAblation(F.Op, matchVnni(F.Op), Machine);
  EXPECT_GE(A.ParallelOnly, A.ParallelUnroll);
  EXPECT_GE(A.ParallelUnroll * 1.0001, A.Tuned);
}

TEST(Ablation, GpuTunedBeatsGeneric) {
  ComputeOpRef Gemm = buildGemmOp(208, 512, 1024, DataType::f16(),
                                  DataType::f32());
  GpuMachine Machine = GpuMachine::v100();
  GpuAblation A = gpuAblation(Gemm, matchWmma(Gemm), Machine);
  EXPECT_LE(A.Tuned, A.Generic * 1.0001);
  EXPECT_LE(A.SplitK, A.Generic * 1.0001);
}

} // namespace
