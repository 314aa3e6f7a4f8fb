//===- tests/test_perf.cpp - Performance model sanity tests ---------------===//
//
// The cost model is this reproduction's stand-in for real hardware, so its
// *mechanisms* need tests of their own: unrolling hides the dependent
// accumulate chain up to the issue limit, residue guards cost, too much
// unrolling spills/misses, split-K buys occupancy at sync cost, parallelism
// saturates at the core count.
//
//===----------------------------------------------------------------------===//

#include "SpecConformance.h"
#include "TestUtil.h"
#include "core/Inspector.h"
#include "core/OperandGen.h"
#include "graph/Layout.h"
#include "graph/Quantize.h"
#include "perf/CostModel.h"
#include "tuner/Tuner.h"
#include "target/TargetRegistry.h"

#include <gtest/gtest.h>

using namespace unit;
using namespace unit::testutil;

namespace {

KernelStats baseCpuStats() {
  KernelStats S;
  S.Calls = 1e6;
  S.MacsPerCall = 64;
  S.Cost = IntrinsicCost{5.0, 2.0, 64.0};
  S.LoadsPerCall = 2;
  S.ParallelExtent = 96;
  return S;
}

TEST(CpuModel, UnrollHidesLatencyChain) {
  CpuMachine M = CpuMachine::cascadeLake();
  KernelStats S = baseCpuStats();
  S.Unroll = 1;
  double U1 = cpuLatencySeconds(S, M);
  S.Unroll = 4;
  double U4 = cpuLatencySeconds(S, M);
  S.Unroll = 8;
  double U8 = cpuLatencySeconds(S, M);
  EXPECT_GT(U1, U4);
  EXPECT_GE(U4, U8);
  // U1 is chain-bound at 5 cycles vs load-bound ~1: about 4-5x.
  EXPECT_GT(U1 / U8, 3.0);
}

TEST(CpuModel, ExcessiveUnrollHitsICache) {
  CpuMachine M = CpuMachine::cascadeLake();
  KernelStats S = baseCpuStats();
  S.LoadsPerCall = 17; // Unblocked layout: big bodies.
  S.Unroll = 8;
  double Moderate = cpuLatencySeconds(S, M);
  S.Unroll = 512; // Absurd unrolling blows the I-cache budget.
  double Extreme = cpuLatencySeconds(S, M);
  EXPECT_GT(Extreme, Moderate);
}

TEST(CpuModel, ResidueGuardsCost) {
  CpuMachine M = CpuMachine::cascadeLake();
  KernelStats S = baseCpuStats();
  S.Calls = 1e8; // Amortize fork/join so the branch penalty is visible.
  S.Unroll = 8;
  double Clean = cpuLatencySeconds(S, M);
  S.HasResidueGuards = true;
  double Guarded = cpuLatencySeconds(S, M);
  EXPECT_GT(Guarded, Clean);
  EXPECT_NEAR(Guarded / Clean, 1.0 + M.ResidueBranchPenalty, 0.05);
}

TEST(CpuModel, ParallelismSaturatesAtCores) {
  CpuMachine M = CpuMachine::cascadeLake();
  KernelStats S = baseCpuStats();
  S.Unroll = 8;
  S.ParallelExtent = 1;
  double Serial = cpuLatencySeconds(S, M);
  S.ParallelExtent = M.Cores;
  double AllCores = cpuLatencySeconds(S, M);
  EXPECT_GT(Serial / AllCores, M.Cores * 0.5);
  S.ParallelExtent = M.Cores * 100;
  double Oversubscribed = cpuLatencySeconds(S, M);
  // More chunks than cores cannot speed it up much further.
  EXPECT_GT(Oversubscribed, AllCores * 0.8);
}

TEST(CpuModel, MemoryRooflineBinds) {
  CpuMachine M = CpuMachine::cascadeLake();
  KernelStats S = baseCpuStats();
  S.Unroll = 8;
  S.Calls = 100; // Trivial compute...
  S.OutputBytes = 1e9; // ...but a gigabyte of traffic.
  double T = cpuLatencySeconds(S, M);
  double MemBound = 2e9 / (M.DramBytesPerCycle * M.FreqGHz * 1e9);
  EXPECT_GE(T, MemBound);
}

TEST(GpuModel, SplitKImprovesLowOccupancy) {
  GpuMachine M = GpuMachine::v100();
  KernelStats S;
  S.Calls = 5e5;
  S.Cost = IntrinsicCost{64.0, 0.25, 4096.0};
  S.ParallelExtent = 40; // Half the SMs busy; classic bs=1 conv.
  S.Unroll = 4;
  S.SplitK = 1;
  double NoSplit = gpuLatencySeconds(S, M);
  S.SplitK = 8;
  double Split = gpuLatencySeconds(S, M);
  EXPECT_LT(Split, NoSplit);
  EXPECT_GT(NoSplit / Split, 2.0);
}

TEST(GpuModel, SplitKPaysSyncWhenSaturated) {
  GpuMachine M = GpuMachine::v100();
  KernelStats S;
  S.Calls = 5e5;
  S.Cost = IntrinsicCost{64.0, 0.25, 4096.0};
  S.ParallelExtent = 8000; // Plenty of blocks already.
  S.Unroll = 4;
  S.SplitK = 1;
  double NoSplit = gpuLatencySeconds(S, M);
  S.SplitK = 64;
  double Split = gpuLatencySeconds(S, M);
  EXPECT_GE(Split, NoSplit); // Only the sync overhead is added.
}

TEST(GpuModel, UnrollPastRegisterBudgetSpills) {
  GpuMachine M = GpuMachine::v100();
  KernelStats S;
  S.Calls = 5e5;
  S.Cost = IntrinsicCost{64.0, 0.25, 4096.0};
  S.ParallelExtent = 200;
  S.SplitK = 1;
  S.Unroll = 4; // p=2.
  double P2 = gpuLatencySeconds(S, M);
  S.Unroll = 64; // p=8: way past the register budget.
  double P8 = gpuLatencySeconds(S, M);
  EXPECT_GT(P8, P2 * 0.99);
}

TEST(AnalyzeTensorized, CountsCallsAndUnroll) {
  OpFixture F = makeConv2D(8, 8, 8, 32, 3, 3);
  TensorIntrinsicRef Vnni =
      IntrinsicRegistry::instance().lookup("vnni.vpdpbusd");
  std::optional<MatchResult> M = inspect(F.Op, Vnni);
  ASSERT_TRUE(M);
  TensorizePlan Plan = buildCpuPlan(F.Op, *M, CpuTuningPair{3000, 4});
  KernelStats S = analyzeTensorized(Plan);
  // Total instruction calls: 6*6 spatial x (32/16) k.o x 3*3 r,s x
  // (8/4) rc.o = 1296, independent of the unroll split.
  EXPECT_DOUBLE_EQ(S.Calls, 6 * 6 * 2 * 3 * 3 * 2);
  EXPECT_GE(S.Unroll, 2.0);
  EXPECT_GE(S.ParallelExtent, 1.0);
}

TEST(AnalyzeTensorized, BlockedLayoutLoadsPerCallIsSmall) {
  // The blocked KCRS[y]k[x]c layout makes the register block one load:
  // vpdpbusd needs ~2 loads/call, not 17.
  QuantScheme Scheme = TargetRegistry::instance().get("x86")->scheme();
  ConvLayer L;
  L.Name = "t";
  L.InC = 64;
  L.InH = L.InW = 16;
  L.OutC = 64;
  L.KH = L.KW = 3;
  LaidOutOp Laid =
      buildDirectConvOp(L, Scheme.Activation, Scheme.Weight,
                        Scheme.Accumulator, 16, 4);
  std::vector<MatchResult> Ms = inspectTarget(Laid.Op, "x86");
  ASSERT_FALSE(Ms.empty());
  TensorizePlan Plan = buildCpuPlan(Laid.Op, Ms.front(), CpuTuningPair{3000, 8});
  KernelStats S = analyzeTensorized(Plan);
  EXPECT_LE(S.LoadsPerCall, 3.0);
}

TEST(AnalyzeTensorized, ImperfectTunerSplitSetsGuards) {
  OpFixture F = makeConv2D(9, 9, 8, 16, 3, 3); // 7x7 output.
  TensorIntrinsicRef Vnni =
      IntrinsicRegistry::instance().lookup("vnni.vpdpbusd");
  std::optional<MatchResult> M = inspect(F.Op, Vnni);
  ASSERT_TRUE(M);
  TensorizePlan Plan = reorganizeLoops(F.Op, *M);
  Plan.Sched->split(Plan.OuterDataParallel[0], 2); // 7 % 2 != 0.
  KernelStats S = analyzeTensorized(Plan);
  EXPECT_TRUE(S.HasResidueGuards);
  EXPECT_LT(S.UsefulFraction, 1.0);
}

TEST(AnalyzeMatch, IsTheScheduleFreePartOfAnalyzeTensorized) {
  // The match's stats equal the reorganized plan's in every field the
  // schedule does not decide; the plan adds calls, and guards once the
  // tuner splits imperfectly.
  OpFixture F = makeConv2D(9, 9, 8, 16, 3, 3);
  std::optional<MatchResult> M =
      inspect(F.Op, IntrinsicRegistry::instance().lookup("vnni.vpdpbusd"));
  ASSERT_TRUE(M);
  KernelStats Match = analyzeMatch(*F.Op, *M);
  KernelStats Plan = analyzeTensorized(reorganizeLoops(F.Op, *M));
  EXPECT_EQ(Match.Calls, 0.0);
  EXPECT_EQ(Plan.Calls, 7 * 7 * 1 * 3 * 3 * 2);
  Match.Calls = Plan.Calls;
  expectSameStats(Match, Plan, "vnni conv");
}

/// A three-axis register layout p(2) x q(3) x r(4), lane strides 12, 4, 1.
RegisterLayout threeAxisLayout() {
  RegisterLayout L;
  L.Axes = {{makeAxis("p", 2), 12}, {makeAxis("q", 3), 4},
            {makeAxis("r", 4), 1}};
  L.Lanes = 24;
  return L;
}

std::vector<OperandAxisRole> recordedRoles(const OperandRoles &R) {
  std::vector<OperandAxisRole> Out;
  for (const auto &[Axis, Role] : R.Recorded)
    Out.push_back(Role);
  return Out;
}

TEST(OperandRoles, RecordNothingPastTheFirstUnrolledAxis) {
  RegisterLayout L = threeAxisLayout();
  using R = OperandAxisRole;
  // Two depended interior axes: both unroll, but only p is recorded, so
  // the load count is p's extent, not p x q. Goldens depend on this.
  OperandRoles Gather = operandRoles(L, {100, 10, 7});
  EXPECT_EQ(Gather.PerAxis,
            (std::vector<R>{R::Unroll, R::Unroll, R::Vectorize}));
  ASSERT_EQ(Gather.Recorded.size(), 1u);
  EXPECT_EQ(Gather.Recorded[0].first, L.Axes[0].InstrAxis);
  EXPECT_EQ(Gather.Loads, 2);
  // Broadcast axes before the first unrolled one follow it, innermost
  // first.
  OperandRoles Tiled = operandRoles(L, {0, 10, 7});
  EXPECT_EQ(recordedRoles(Tiled), (std::vector<R>{R::Unroll, R::Broadcast}));
  EXPECT_EQ(Tiled.Recorded[0].first, L.Axes[1].InstrAxis);
  EXPECT_EQ(Tiled.Loads, 3);
  OperandRoles Splat = operandRoles(L, {0, 0, 0});
  EXPECT_EQ(recordedRoles(Splat),
            (std::vector<R>{R::Broadcast, R::Broadcast, R::Broadcast}));
  EXPECT_EQ(Splat.Recorded[0].first, L.Axes[2].InstrAxis);
  EXPECT_EQ(Splat.Loads, 1);
  // Contiguous in lane order (strides 2 x lane strides): one load.
  OperandRoles Block = operandRoles(L, {24, 8, 2});
  EXPECT_EQ(recordedRoles(Block),
            (std::vector<R>{R::Vectorize, R::Vectorize, R::Vectorize}));
  EXPECT_EQ(Block.Loads, 1);
}

TEST(SimdFallback, WideningFactorScalesLatency) {
  // Large enough that compute dominates fork/join and memory.
  OpFixture F = makeConv2D(56, 56, 64, 128, 3, 3);
  CpuMachine M = CpuMachine::graviton2();
  KernelStats S1 = analyzeSimdFallback(F.Op, 1.0, 2916);
  KernelStats S8 = analyzeSimdFallback(F.Op, 8.0, 2916);
  EXPECT_GT(simdLatencySeconds(S8, M), simdLatencySeconds(S1, M) * 2.0);
}

TEST(Elementwise, LatencyIsLinear) {
  double A = elementwiseLatencySeconds(1e6, 0, 1e9);
  double B = elementwiseLatencySeconds(2e6, 0, 1e9);
  EXPECT_DOUBLE_EQ(B, 2 * A);
  EXPECT_DOUBLE_EQ(elementwiseLatencySeconds(0, 5e-6, 1e9), 5e-6);
}

} // namespace
