//===- tests/test_tuner.cpp - Tuner behaviour tests ------------------------===//

#include "SpecConformance.h"
#include "TestUtil.h"
#include "core/Inspector.h"
#include "core/Pipeline.h"
#include "graph/Layout.h"
#include "graph/Quantize.h"
#include "models/Table1.h"
#include "support/ThreadPool.h"
#include "tir/Lower.h"
#include "tuner/Tuner.h"
#include "target/SpecFile.h"
#include "target/TargetRegistry.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>

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

//===----------------------------------------------------------------------===//
// Analytic scoring parity: the search prices candidates from extent
// arithmetic, so these tests hold it to what building each candidate's
// plan and analyzing it reports, on every shipped target.
//===----------------------------------------------------------------------===//

/// The five builtin targets plus the two checked-in file specs, each
/// registered once per process.
const std::vector<TargetSpec> &parityTargets() {
  static const std::vector<TargetSpec> Specs = [] {
    for (const char *File : {"specs/fixed16-dma.json",
                             "specs/nvgpu-wmma-s8.json"}) {
      std::string Err;
      EXPECT_NE(registerSpecFile(std::string(UNIT_REPO_ROOT) + "/" + File,
                                 &Err),
                nullptr)
          << Err;
    }
    std::vector<TargetSpec> Out;
    for (const char *Id : {"x86", "arm", "nvgpu", "x86-amx", "arm-sve",
                           "fixed16-dma", "nvgpu-s8"})
      Out.push_back(TargetRegistry::instance().specFor(Id));
    return Out;
  }();
  return Specs;
}

bool isCpu(const TargetSpec &Spec) {
  return Spec.Engine == TargetSpec::EngineKind::CpuDot;
}

/// Every distinct non-depthwise conv of the paper zoo, the widened
/// resnet-18 and Table I.
std::vector<ConvLayer> parityLayers() {
  std::vector<ConvLayer> Out;
  std::set<std::string> Seen;
  auto Add = [&](const ConvLayer &L) {
    if (!L.Depthwise && Seen.insert(L.shapeKey()).second)
      Out.push_back(L);
  };
  for (const Model &M : paperModels())
    for (const ConvLayer &L : M.Convs)
      Add(L);
  for (const ConvLayer &L : makeResnet18Wide().Convs)
    Add(L);
  for (const ConvLayer &L : table1Workloads())
    Add(L);
  return Out;
}

TunedKernel tuneOn(const TargetSpec &Spec, const TunedView &View,
                   ThreadPool *Pool, const TunerOptions &Opts) {
  return isCpu(Spec) ? tuneCpu(View.Op, View.Match, Spec.Cpu, Pool, Opts)
                     : tuneGpu(View.Op, View.Match, Spec.Gpu, Pool, Opts);
}

/// What the reference search picked.
struct ReferenceResult {
  int Winner = -1;
  double LatencySeconds = 1e30;
  int Scored = 0;
};

/// The search as it ran when every candidate built a schedule: the seed
/// first, then ascending indices; a visited candidate builds its plan
/// and analyzes it, and under Opts.Prune is skipped when the lower bound
/// of those stats strictly exceeds the best latency so far. The winner is
/// the first minimal latency in index order. \p Price maps a candidate to
/// its (latency, lower bound) pair. Sequential only.
template <typename Candidate, typename PriceFn>
ReferenceResult referenceSearch(std::vector<Candidate> Candidates,
                                const PriceFn &Price,
                                const TunerOptions &Opts) {
  if (Opts.MaxCandidates > 0 &&
      static_cast<size_t>(Opts.MaxCandidates) < Candidates.size())
    Candidates.resize(static_cast<size_t>(Opts.MaxCandidates));
  std::vector<double> Latency(Candidates.size(), -1);
  double Best = 1e30;
  auto Score = [&](size_t I) {
    Latency[I] = Price(Candidates[I]).first;
    Best = std::min(Best, Latency[I]);
  };
  if (Opts.SeedCandidate >= 0 &&
      static_cast<size_t>(Opts.SeedCandidate) < Candidates.size())
    Score(static_cast<size_t>(Opts.SeedCandidate));
  for (size_t I = 0; I < Candidates.size(); ++I) {
    if (Latency[I] >= 0)
      continue;
    if (Opts.Prune && Best < 1e30 && Price(Candidates[I]).second > Best)
      continue;
    Score(I);
  }
  ReferenceResult R;
  for (size_t I = 0; I < Candidates.size(); ++I) {
    if (Latency[I] < 0)
      continue;
    ++R.Scored;
    if (Latency[I] < R.LatencySeconds) {
      R.LatencySeconds = Latency[I];
      R.Winner = static_cast<int>(I);
    }
  }
  return R;
}

ReferenceResult referenceSearchOn(const TargetSpec &Spec,
                                  const TunedView &View,
                                  const TunerOptions &Opts) {
  if (isCpu(Spec))
    return referenceSearch(
        defaultCpuTuningPairs(),
        [&](const CpuTuningPair &Pair) {
          KernelStats S = analyzeTensorized(
              buildCpuPlan(View.Op, View.Match, Pair));
          return std::make_pair(cpuLatencySeconds(S, Spec.Cpu),
                                cpuLatencyLowerBoundSeconds(S, Spec.Cpu));
        },
        Opts);
  return referenceSearch(
      defaultGpuTuningConfigs(),
      [&](const GpuTuningConfig &Config) {
        KernelStats S =
            analyzeTensorized(buildGpuPlan(View.Op, View.Match, Config));
        return std::make_pair(gpuLatencySeconds(S, Spec.Gpu),
                              gpuLatencyLowerBoundSeconds(S, Spec.Gpu));
      },
      Opts);
}

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof A) == 0;
}

TEST(TunerAnalyticParity, EveryCandidateScoresLikeItsBuiltPlan) {
  AnalyticCoverage Coverage;
  std::vector<ConvLayer> Layers = parityLayers();
  for (const TargetSpec &Spec : parityTargets()) {
    SCOPED_TRACE(Spec.Id);
    size_t Before = Coverage.Searches;
    for (const ConvLayer &L : Layers)
      for (const TunedView &View : tunedConvViews(Spec, L))
        checkAnalyticScoring(Spec, View, Coverage);
    if (isCpu(Spec) && Spec.SupportsConv3d) {
      const QuantScheme &Q = Spec.Scheme;
      for (const Conv3dLayer &L : makeResnet18Conv3d()) {
        ComputeOpRef Op =
            buildDirectConv3dOp(L, Q.Activation, Q.Weight, Q.Accumulator,
                                Q.LaneMultiple, Q.ReduceMultiple)
                .Op;
        if (std::optional<TunedView> View = tunedView(Spec, Op))
          checkAnalyticScoring(Spec, *View, Coverage);
      }
    }
    EXPECT_GT(Coverage.Searches, Before + Layers.size() / 2);
  }
  // Both guarded and guard-free schedules are covered.
  EXPECT_GT(Coverage.Guarded, 0u);
  EXPECT_LT(Coverage.Guarded, Coverage.Candidates);
}

TEST(TunerAnalyticParity, SeededAndPrunedSearchesMatchTheOldSearch) {
  size_t Searches = 0, Pruned = 0;
  for (const TargetSpec &Spec : parityTargets()) {
    SCOPED_TRACE(Spec.Id);
    for (const ConvLayer &L : sampleZooConvs(8, /*Seed=*/2026))
      for (const TunedView &View : tunedConvViews(Spec, L))
        for (int MaxCandidates : {-1, 6})
          for (int Seed : {-1, 0, 2, 5, 16, 19, 20, 400}) {
            TunerOptions Opts;
            Opts.Prune = true;
            Opts.MaxCandidates = MaxCandidates;
            Opts.SeedCandidate = Seed;
            TunedKernel New = tuneOn(Spec, View, nullptr, Opts);
            ReferenceResult Old = referenceSearchOn(Spec, View, Opts);
            EXPECT_EQ(New.BestCandidateIndex, Old.Winner) << Seed;
            EXPECT_TRUE(sameBits(New.LatencySeconds, Old.LatencySeconds))
                << Seed;
            EXPECT_EQ(New.CandidatesTried, Old.Scored) << Seed;
            ++Searches;
            Pruned += static_cast<size_t>(New.SpaceSize - New.CandidatesTried);
          }
  }
  EXPECT_GT(Searches, 0u);
  EXPECT_GT(Pruned, 0u); // The bound does prune.
}

TEST(TunerAnalyticParity, PoolSearchPicksTheSameWinner) {
  ThreadPool Pool(2);
  for (const TargetSpec &Spec : parityTargets()) {
    SCOPED_TRACE(Spec.Id);
    for (const ConvLayer &L : sampleZooConvs(4, /*Seed=*/7))
      for (const TunedView &View : tunedConvViews(Spec, L))
        for (bool Prune : {false, true}) {
          TunerOptions Opts;
          Opts.Prune = Prune;
          Opts.SeedCandidate = Prune ? 3 : -1;
          TunedKernel Seq = tuneOn(Spec, View, nullptr, Opts);
          TunedKernel Par = tuneOn(Spec, View, &Pool, Opts);
          EXPECT_EQ(Par.BestCandidateIndex, Seq.BestCandidateIndex);
          EXPECT_TRUE(sameBits(Par.LatencySeconds, Seq.LatencySeconds));
          expectSameStats(Par.Stats, Seq.Stats, Spec.Id);
          if (!Prune)
            EXPECT_EQ(Par.CandidateLatencies, Seq.CandidateLatencies);
        }
  }
}

} // namespace
