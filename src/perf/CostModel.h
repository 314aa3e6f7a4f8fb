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
};

/// Extracts stats from a tensorized plan's current schedule (no lowering
/// involved). The Tuner calls it once per search, on the Rewriter's
/// reorganized plan, and derives every candidate's stats from that by
/// extent arithmetic; codegen and the vendor baselines call it on built
/// plans.
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
