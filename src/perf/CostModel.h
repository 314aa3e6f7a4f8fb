//===- perf/CostModel.h - Schedule-level performance estimation -----------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Estimates kernel latency from the *schedule structure* — the quantities
/// the paper's tuner actually manipulates (unrolled accumulators, parallel
/// chunks, split-K segments, residue guards) — against a MachineModel.
/// The Tuner profiles candidate schedules through this model, and the
/// simulated vendor libraries (baselines/) price their fixed expert
/// schedules through the *same* formulas, so comparisons measure schedule
/// quality, not model disagreement.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_PERF_COSTMODEL_H
#define UNIT_PERF_COSTMODEL_H

#include "core/Rewriter.h"
#include "perf/MachineModel.h"

namespace unit {

/// Schedule-level facts that determine modeled latency.
struct KernelStats {
  // -- Tensorized work --
  double Calls = 0;          ///< Intrinsic invocations (padding included).
  double MacsPerCall = 0;
  IntrinsicCost Cost;        ///< Instruction pipeline characteristics.
  double LoadsPerCall = 1;   ///< Vector loads feeding one invocation.
  // -- Schedule structure --
  double Unroll = 1;         ///< Independent accumulator tiles in flight.
  double ParallelExtent = 1; ///< CPU parallel chunks / GPU blocks.
  double SplitK = 1;         ///< GPU concurrent reduction segments.
  bool HasResidueGuards = false;
  double UsefulFraction = 1.0; ///< Non-padding fraction of the work.
  // -- Memory footprints in bytes --
  double OutputBytes = 0;
  double InputBytes = 0;
  double WeightBytes = 0;
  // -- SIMD fallback work (used when Calls == 0) --
  double SimdMacs = 0;
  double SimdElemBytes = 1;
  double WideningFactor = 1; ///< Extra instructions per MAC (no-DOT NEON).

  /// What one outer loop of a tensorized schedule adds: its extent
  /// multiplies Calls, and by \p Kind also Unroll, ParallelExtent (CPU
  /// parallel, GPU blocks, GPU threads over a data-parallel loop) or
  /// SplitK (GPU threads over a reduce loop).
  void foldLoop(int64_t Extent, ForKind Kind, bool IsReduce);
  /// What splitting a loop of \p Extent by \p Factor adds: an imperfect
  /// split sets HasResidueGuards and scales UsefulFraction by its padding
  /// waste. Fold splits in split order: UsefulFraction is a
  /// floating-point product.
  void foldSplit(int64_t Extent, int64_t Factor);
};

/// The stats a tensorized kernel owes to the operation and the match
/// alone, whatever its schedule: the instruction cost, MacsPerCall,
/// LoadsPerCall and the memory footprints. Calls and the schedule
/// structure fields keep their defaults; analyzeTensorized fills them
/// from a plan, the Tuner from extent arithmetic.
///
/// LoadsPerCall: each input register's lane layout comes from the
/// instruction (TensorIntrinsic::laneLayout), the operation's stride along
/// each lane axis from the coefficient of the mapped op axis in the
/// operation's own access (opLaneStrides), and the count from the same
/// role rule the Replacer's operand generation applies (operandRoles,
/// core/OperandGen.h). No operand expression is built. Fatal-errors, as
/// operand generation would, when a register's lane axes do not fill it
/// or an access is not affine in the mapped axes.
KernelStats analyzeMatch(const ComputeOp &Op, const MatchResult &Match);

/// analyzeMatch of the plan's operation and match, plus what the plan's
/// current schedule adds (no lowering involved): the call count and the
/// unroll, parallel and split-K extents of its outer loops, and the
/// residue guards and padding of its imperfect splits. Examples and tests
/// call it on built plans; the Tuner and the baselines fold loop recipes
/// instead of building them (tuner/LoopRecipe.h).
KernelStats analyzeTensorized(const TensorizePlan &Plan);

/// Fills the SIMD-fallback fields for a non-tensorized ComputeOp.
KernelStats analyzeSimdFallback(const ComputeOpRef &Op,
                                double WideningFactor,
                                double ParallelExtent);

/// Modeled seconds on a CPU for a tensorized kernel.
double cpuLatencySeconds(const KernelStats &S, const CpuMachine &M);

/// Modeled seconds on a CPU for a SIMD (non-tensorized) kernel.
double simdLatencySeconds(const KernelStats &S, const CpuMachine &M);

/// Modeled seconds on a GPU (tensor-core kernel).
double gpuLatencySeconds(const KernelStats &S, const GpuMachine &M);

/// Admissible lower bound on cpuLatencySeconds: prices \p S with
/// LoadsPerCall = 1 and no residue guards — the optimistic floor of both.
/// cpuLatencySeconds is monotone nondecreasing in LoadsPerCall (the load
/// port term and the I-cache body-size penalty both grow with it) and in
/// the guard flag, so the returned value never exceeds the real latency.
/// The tuner's early-exit pruning compares this bound of a candidate's
/// stats with the running best: a candidate whose bound exceeds it cannot
/// be the winner.
double cpuLatencyLowerBoundSeconds(const KernelStats &S, const CpuMachine &M);

/// GPU analog. gpuLatencySeconds reads neither LoadsPerCall nor the guard
/// flag, so this bound *equals* the latency — GPU pruning skips exactly
/// the candidates that cannot beat the running best.
double gpuLatencyLowerBoundSeconds(const KernelStats &S, const GpuMachine &M);

/// Modeled seconds for a pure streaming elementwise pass over \p Bytes
/// (used for non-fused epilogues and framework glue operators).
double elementwiseLatencySeconds(double Bytes, double LaunchOverheadSeconds,
                                 double BytesPerSecond);

} // namespace unit

#endif // UNIT_PERF_COSTMODEL_H
