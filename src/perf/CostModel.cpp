//===- perf/CostModel.cpp --------------------------------------------------===//

#include "perf/CostModel.h"

#include "core/OperandGen.h"
#include "support/ErrorHandling.h"

#include <algorithm>
#include <cmath>

using namespace unit;

void KernelStats::foldLoop(int64_t Extent, ForKind Kind, bool IsReduce) {
  double E = static_cast<double>(Extent);
  Calls *= E;
  switch (Kind) {
  case ForKind::Unrolled:
    Unroll *= E;
    break;
  case ForKind::Parallel:
  case ForKind::GpuBlockX:
  case ForKind::GpuBlockY:
    ParallelExtent *= E;
    break;
  case ForKind::GpuThreadX:
  case ForKind::GpuThreadY:
    (IsReduce ? SplitK : ParallelExtent) *= E;
    break;
  case ForKind::Serial:
  case ForKind::Vectorized:
    break;
  }
}

void KernelStats::foldSplit(int64_t Extent, int64_t Factor) {
  if (Extent % Factor == 0)
    return;
  HasResidueGuards = true;
  double Padded = static_cast<double>((Extent + Factor - 1) / Factor) *
                  static_cast<double>(Factor);
  UsefulFraction *= static_cast<double>(Extent) / Padded;
}

static double footprintBytes(const TensorRef &T) {
  return static_cast<double>(T->numElements()) * T->dtype().lanesBytes();
}

KernelStats unit::analyzeMatch(const ComputeOp &Op, const MatchResult &Match) {
  const TensorIntrinsic &Intr = *Match.Intrinsic;
  KernelStats Stats;
  Stats.Cost = Intr.cost();
  Stats.MacsPerCall = Intr.cost().MacsPerInstr;

  // Loads per invocation, from the strides the match recorded for each
  // input register and the operand-generation roles (core/OperandGen.h).
  // The accumulator stays register-resident across the reduction, so it
  // is not charged per call.
  int64_t Loads = 0;
  for (const OperandBinding &B : Match.Iso.Bindings) {
    if (B.IsAccumulator)
      continue;
    const RegisterLayout &Layout = Intr.laneLayout(B.InstrLoad);
    if (Layout.Lanes != B.InstrTensor->numElements())
      reportFatalError("operand generation: lane count does not fill "
                       "register '" +
                       B.InstrTensor->name() + "'");
    Loads += operandRoles(Layout, B.LaneStrides).Loads;
  }
  Stats.LoadsPerCall = std::max(1.0, static_cast<double>(Loads));

  // Memory footprints.
  Stats.OutputBytes = footprintBytes(Op.output());
  const std::vector<TensorRef> &Inputs = Op.inputs();
  for (size_t I = 0; I < Inputs.size(); ++I) {
    // Convention: the last reduce-only operand acts like weights; a 2-input
    // MAC op has activations first, weights second.
    if (I + 1 == Inputs.size() && Inputs.size() >= 2)
      Stats.WeightBytes += footprintBytes(Inputs[I]);
    else
      Stats.InputBytes += footprintBytes(Inputs[I]);
  }
  return Stats;
}

KernelStats unit::analyzeTensorized(const TensorizePlan &Plan) {
  const Schedule &S = *Plan.Sched;
  KernelStats Stats = analyzeMatch(*S.op(), Plan.Match);

  // Walk the leaves, skipping the tensorized inner loops (they are covered
  // by one instruction invocation).
  Stats.Calls = 1;
  for (const IterVar &Leaf : S.leaves())
    if (std::find(Plan.InnerLoops.begin(), Plan.InnerLoops.end(), Leaf) ==
        Plan.InnerLoops.end())
      Stats.foldLoop(Leaf->extent(), S.annotation(Leaf), Leaf->isReduce());
  for (const Schedule::SplitRel &R : S.splits())
    Stats.foldSplit(R.Parent->extent(), R.Factor);
  return Stats;
}

KernelStats unit::analyzeSimdFallback(const ComputeOpRef &Op,
                                      double WideningFactor,
                                      double ParallelExtent) {
  KernelStats Stats;
  double Macs = 1;
  for (const IterVar &IV : Op->allAxes())
    Macs *= static_cast<double>(IV->extent());
  Stats.SimdMacs = Macs;
  Stats.SimdElemBytes = Op->inputs().empty()
                            ? 1.0
                            : Op->inputs().front()->dtype().lanesBytes();
  Stats.WideningFactor = WideningFactor;
  Stats.ParallelExtent = ParallelExtent;
  Stats.OutputBytes = footprintBytes(Op->output());
  for (const TensorRef &T : Op->inputs())
    Stats.InputBytes += footprintBytes(T);
  return Stats;
}

namespace {

/// Penalty for unrolled bodies that overflow the instruction cache or
/// decoded-uop budget (paper §III.C: "If it is too large, it will cause
/// I-cache misses").
double iCachePenalty(double BodyBytes, const CpuMachine &M) {
  if (BodyBytes <= M.ICacheBodyBudgetBytes)
    return 1.0;
  return 1.0 + 0.3 * std::log2(BodyBytes / M.ICacheBodyBudgetBytes);
}

double dramTrafficBytes(const KernelStats &S) {
  // One-pass traffic plus read-modify-write of the accumulator output.
  return 2.0 * S.OutputBytes + S.InputBytes + S.WeightBytes;
}

} // namespace

double unit::cpuLatencySeconds(const KernelStats &S, const CpuMachine &M) {
  double Chunks = std::max(1.0, S.ParallelExtent);
  double Threads = std::min<double>(M.Cores, Chunks);

  // Per-call cycles: the dependent accumulate chain is hidden by `Unroll`
  // independent accumulators (paper §III.C CPU tuning).
  double IssueCycles = 1.0 / S.Cost.IssuePerCycle;
  double ChainCycles = S.Cost.LatencyCycles / std::max(1.0, S.Unroll);
  double LoadCycles = S.LoadsPerCall / M.LoadPortsPerCycle;
  double BodyCycles = std::max({IssueCycles, ChainCycles, LoadCycles});
  if (S.HasResidueGuards)
    BodyCycles *= 1.0 + M.ResidueBranchPenalty;

  // Unrolled body footprint: each call is roughly (loads + 1 FMA-class
  // instruction) of ~8 encoded bytes.
  double BodyBytes = S.Unroll * (S.LoadsPerCall + 1.0) * 8.0;
  BodyCycles *= iCachePenalty(BodyBytes, M);

  // Imbalance-aware per-core work.
  double CallsPerChunk = S.Calls / Chunks;
  double PerCoreCalls = std::ceil(Chunks / Threads) * CallsPerChunk;
  double ComputeCycles = PerCoreCalls * BodyCycles;

  double OverheadCycles =
      M.ForkJoinCycles + M.PerChunkSchedCycles * (Chunks / Threads);

  double MemCycles = dramTrafficBytes(S) / M.DramBytesPerCycle;

  double Cycles = std::max(ComputeCycles, MemCycles) + OverheadCycles;
  return Cycles / (M.FreqGHz * 1e9);
}

double unit::simdLatencySeconds(const KernelStats &S, const CpuMachine &M) {
  double LanesPerVector = M.SimdVectorBytes / S.SimdElemBytes;
  double MacsPerCyclePerCore =
      LanesPerVector * M.SimdPipes / std::max(1.0, S.WideningFactor);
  double Chunks = std::max(1.0, S.ParallelExtent);
  double Threads = std::min<double>(M.Cores, Chunks);
  double PerCoreMacs = std::ceil(Chunks / Threads) * (S.SimdMacs / Chunks);
  double ComputeCycles = PerCoreMacs / MacsPerCyclePerCore;
  double OverheadCycles =
      M.ForkJoinCycles + M.PerChunkSchedCycles * (Chunks / Threads);
  double MemCycles = dramTrafficBytes(S) / M.DramBytesPerCycle;
  double Cycles = std::max(ComputeCycles, MemCycles) + OverheadCycles;
  return Cycles / (M.FreqGHz * 1e9);
}

double unit::gpuLatencySeconds(const KernelStats &S, const GpuMachine &M) {
  double Blocks = std::max(1.0, S.ParallelExtent);
  double SplitK = std::max(1.0, S.SplitK);
  double Unroll = std::max(1.0, S.Unroll);

  // A block's split-K segments are concurrent warps on one SM. With bs=1
  // there are often too few blocks to cover the SMs; split-K manufactures
  // extra warps to "keep the Tensor Cores busy" (paper §VI.B).
  double TotalWarps = Blocks * SplitK;
  double ActiveSMs = std::min<double>(M.SMs, Blocks);
  double WarpsPerSM = TotalWarps / ActiveSMs;

  // One warp issues a wmma every WarpIssueCycles at best; the dependent
  // accumulate chain stretches that unless `Unroll` independent
  // accumulators (the p x p outer product of Fig. 6) hide it.
  double PerWarpInterval =
      std::max(M.WarpIssueCycles, S.Cost.LatencyCycles / Unroll);
  double SMRate =
      std::min(M.WmmaPerCyclePerSM, WarpsPerSM / PerWarpInterval);
  double ComputeCycles = S.Calls / (ActiveSMs * SMRate);

  // Register pressure: every live accumulator tile holds a fragment in
  // the warp's registers; past the budget, spills dominate (the paper's
  // "any unrolling degree larger than 2 may overwhelm the registers").
  double RegsPerWarp = M.RegsBase + Unroll * M.RegsPerAccumTile;
  double SpillPenalty = 1.0;
  if (RegsPerWarp > M.RegBudgetPerWarp)
    SpillPenalty = 1.0 + 1.5 * (RegsPerWarp / M.RegBudgetPerWarp - 1.0);

  // Split-K epilogue: cross-segment reduction through shared memory.
  double SyncCycles = 0.0;
  if (SplitK > 1)
    SyncCycles = M.SyncBaseCycles + M.SyncPerSegmentCycles * SplitK;

  // Achievable DRAM bandwidth scales with memory-level parallelism: a
  // handful of resident warps cannot keep HBM busy, so split-K also lifts
  // the memory roofline of low-occupancy kernels.
  double BwUtilization =
      std::min(1.0, TotalWarps / M.WarpsForPeakBandwidth);
  double MemCycles = dramTrafficBytes(S) /
                     (M.DramBytesPerCycle * std::max(0.15, BwUtilization));

  double Cycles =
      std::max(ComputeCycles, MemCycles) * SpillPenalty + SyncCycles;
  return Cycles / (M.FreqGHz * 1e9) + M.KernelLaunchMicros * 1e-6;
}

double unit::cpuLatencyLowerBoundSeconds(const KernelStats &S,
                                         const CpuMachine &M) {
  KernelStats Floor = S;
  Floor.LoadsPerCall = 1;
  Floor.HasResidueGuards = false;
  return cpuLatencySeconds(Floor, M);
}

double unit::gpuLatencyLowerBoundSeconds(const KernelStats &S,
                                         const GpuMachine &M) {
  // No optimistic substitution needed: the GPU formula reads only fields
  // the caller can reconstruct exactly from the schedule arithmetic.
  return gpuLatencySeconds(S, M);
}

double unit::elementwiseLatencySeconds(double Bytes,
                                       double LaunchOverheadSeconds,
                                       double BytesPerSecond) {
  return LaunchOverheadSeconds + Bytes / BytesPerSecond;
}
