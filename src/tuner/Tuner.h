//===- tuner/Tuner.h - Schedule tuning (paper §III.C.3 / §IV.B) -----------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds concrete tuned schedules from tuning-space candidates and
/// searches the space against the cost model. The search scores each
/// candidate from extent arithmetic and builds no schedule; callers that
/// lower the winner rebuild its plan with buildCpuPlan/buildGpuPlan.
/// Exposes per-stage latencies so the ablation benches (paper Figs. 10
/// and 11) can report the incremental impact of Parallel / +Unroll /
/// +Tune on CPU and Generic / +SplitK / +Tune on GPU.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_TUNER_TUNER_H
#define UNIT_TUNER_TUNER_H

#include "obs/Histogram.h"
#include "perf/CostModel.h"
#include "tuner/TuningSpace.h"

#include <cstdint>
#include <optional>

namespace unit {

class ThreadPool;

/// Applies the Fig. 7 CPU loop structure for one tuning pair:
/// outer data-parallel loops are fused while the fused extent stays below
/// Pair.ParallelLimit and parallelized; the innermost data-parallel outer
/// loops are tiled to Pair.UnrollFactor total, sunk below the reduction
/// loops, and unrolled; everything in between executes serially.
TensorizePlan buildCpuPlan(const ComputeOpRef &Op, const MatchResult &Match,
                           const CpuTuningPair &Pair);

/// Applies the Fig. 6 GPU structure for one config on a (matrix-shaped)
/// operation: block-binds the two outermost data-parallel tile loops,
/// keeps a PxP unrolled accumulator array, and splits the reduction into
/// Config.SplitK thread-concurrent segments.
TensorizePlan buildGpuPlan(const ComputeOpRef &Op, const MatchResult &Match,
                           const GpuTuningConfig &Config);

/// A tuned kernel with search telemetry.
///
/// Under early-exit pruning (TunerOptions::Prune) the search may skip
/// candidates whose admissible lower bound already exceeds the running
/// best. The *winner* fields — Stats, LatencySeconds, and
/// BestCandidateIndex — are guaranteed bit-identical to the exhaustive
/// search (the bound is admissible, so a skipped candidate can never win
/// or tie), but the *coverage* fields describe only what was actually
/// scored: CandidatesTried counts scored candidates, CandidateLatencies
/// and ScoredIndices list them in candidate-index order, and SpaceSize
/// records the full (budget-truncated) space the indices refer to.
/// BestCandidateIndex is always an index into that space — stable across
/// pruning and usable as a transfer seed for another search. Stats equals
/// analyzeTensorized of the winner's plan, rebuilt from the candidate at
/// BestCandidateIndex.
struct TunedKernel {
  KernelStats Stats;             ///< The winning schedule's stats.
  double LatencySeconds = 0.0;
  int BestCandidateIndex = -1;   ///< Index into the candidate space.
  int CandidatesTried = 0;       ///< Candidates actually scored.
  int SpaceSize = 0;             ///< Candidate space searched over.
  std::vector<double> CandidateLatencies; ///< One per scored candidate.
  std::vector<int> ScoredIndices;         ///< Space index of each entry.
};

/// Knobs for one tuner search.
struct TunerOptions {
  /// Cap on the candidate space: > 0 truncates the list to its first
  /// MaxCandidates entries (a prefix, so indices keep their meaning);
  /// <= 0 searches the full space.
  int MaxCandidates = -1;
  /// Early-exit pruning: skip a candidate when an admissible lower bound
  /// on its modeled latency (perf/CostModel.h *LatencyLowerBoundSeconds)
  /// strictly exceeds the best latency scored so far. The winner stays
  /// bit-identical to the exhaustive search; only coverage telemetry
  /// (and the work done) changes.
  bool Prune = false;
  /// Transfer seed: score this space index first so pruning has a strong
  /// running best from candidate one. Out-of-range values are ignored.
  /// CompilerSession derives seeds from the cached winners of
  /// near-isomorphic keys (docs/TUNING.md).
  int SeedCandidate = -1;
};

/// The one search entry point per engine. Candidates are scored
/// concurrently on \p Pool when it is non-null, but the winner is chosen
/// by an index-stable argmin, so the result (stats, telemetry) is
/// bit-identical to the sequential search regardless of thread timing.
/// With \p Opts defaulted (no cap, no pruning, no seed) this is the
/// exhaustive search. With pruning on, winner fields stay bit-identical
/// (sequential or pool-parallel) while the scored subset may differ run to
/// run under a pool: threads race the running best, and a stale best only
/// prunes *less*, never wrongly.
TunedKernel tuneCpu(const ComputeOpRef &Op, const MatchResult &Match,
                    const CpuMachine &Machine, ThreadPool *Pool = nullptr,
                    const TunerOptions &Opts = {});
TunedKernel tuneGpu(const ComputeOpRef &Op, const MatchResult &Match,
                    const GpuMachine &Machine, ThreadPool *Pool = nullptr,
                    const TunerOptions &Opts = {});

/// Monotone process-wide count of tuner searches run so far (tuneCpu +
/// tuneGpu). The persistence tests assert a warm-from-disk model compile
/// leaves this untouched — zero tuner invocations.
uint64_t tunerInvocations();

/// Monotone process-wide count of candidates actually scored (stats
/// computed + cost model run). With pruning this grows slower than invocations x
/// space size — the savings the server's `tuner` stats section reports.
uint64_t tunerCandidatesScored();

/// Monotone process-wide count of candidates skipped by early-exit
/// pruning (lower bound above the running best).
uint64_t tunerPrunedCandidates();

/// Monotone process-wide count of searches that applied a valid transfer
/// seed (TunerOptions::SeedCandidate in range).
uint64_t tunerTransferSeeds();

/// Wall-time distribution of scoring one candidate (stats arithmetic +
/// cost model) across every search so far — the server's
/// unit_tuner_candidate_seconds metrics family.
obs::HistogramSnapshot tunerCandidateCost();

/// Ablation stages for paper Fig. 10 (latencies in seconds).
struct CpuAblation {
  double ParallelOnly;   ///< Fuse<3000 + parallel, no unrolling.
  double ParallelUnroll; ///< The (3000, 8) default pair.
  double Tuned;          ///< Full search.
};
CpuAblation cpuAblation(const ComputeOpRef &Op, const MatchResult &Match,
                        const CpuMachine &Machine);

/// Ablation stages for paper Fig. 11 (FuseDim is enumerated by the caller
/// at the graph level; these stages fix the kernel-level knobs).
struct GpuAblation {
  double Generic; ///< p=2, no split-K.
  double SplitK;  ///< p=2, reduction split into 64-element segments.
  double Tuned;   ///< Full search.
};
GpuAblation gpuAblation(const ComputeOpRef &Op, const MatchResult &Match,
                        const GpuMachine &Machine);

} // namespace unit

#endif // UNIT_TUNER_TUNER_H
