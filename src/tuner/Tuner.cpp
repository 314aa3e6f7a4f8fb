//===- tuner/Tuner.cpp -----------------------------------------------------===//

#include "tuner/Tuner.h"

#include "obs/Histogram.h"
#include "obs/Trace.h"
#include "support/ThreadPool.h"
#include "support/Time.h"

#include <algorithm>
#include <atomic>
#include <cstdint>

using namespace unit;

TensorizePlan unit::buildCpuPlan(const ComputeOpRef &Op,
                                 const MatchResult &Match,
                                 const CpuTuningPair &Pair) {
  return applyRecipe(Op, Match, cpuRecipe(outerLoops(*Op, Match), Pair));
}

TensorizePlan unit::buildGpuPlan(const ComputeOpRef &Op,
                                 const MatchResult &Match,
                                 const GpuTuningConfig &Config) {
  return applyRecipe(Op, Match, gpuRecipe(outerLoops(*Op, Match), Config));
}

namespace {

/// Process-wide tuner telemetry; lets tests assert that a warm-from-disk
/// session performs literally zero tuning, and quantifies what pruning
/// and transfer seeding saved (the server's `tuner` stats section).
std::atomic<uint64_t> TunerRuns{0};
std::atomic<uint64_t> ScoredTotal{0};
std::atomic<uint64_t> PrunedTotal{0};
std::atomic<uint64_t> SeededTotal{0};

/// Wall time to score one candidate (stats arithmetic + cost model),
/// the unit_tuner_candidate_seconds family of the server's `metrics`
/// reply. Process-wide like the counters above.
obs::LatencyHistogram CandidateCostHist;

/// What every candidate of one search shares: the outer loop extents
/// the templates split and fuse, and the match's stats. A candidate's
/// stats are foldRecipe of its recipe over these (tuner/LoopRecipe.h).
/// The instruction cost, the footprints and LoadsPerCall carry over from
/// Base unchanged: operand roles read only the strides along the
/// tile-inner loops, and no recipe touches those loops.
struct SearchContext {
  OuterLoops Loops;
  KernelStats Base; ///< analyzeMatch of the search.

  SearchContext(const ComputeOpRef &Op, const MatchResult &Match)
      : Loops(outerLoops(*Op, Match)), Base(analyzeMatch(*Op, Match)) {}
  KernelStats stats(const CpuTuningPair &Pair) const {
    return foldRecipe(cpuRecipe(Loops, Pair), Loops, Base);
  }
  KernelStats stats(const GpuTuningConfig &Config) const {
    return foldRecipe(gpuRecipe(Loops, Config), Loops, Base);
  }
};

/// Shared candidate search. Scores candidates — serially, or
/// concurrently on \p Pool — into an index-stable slot vector, then picks
/// the winner with a strict-less argmin over ascending indices: the same
/// "first minimal latency wins" rule the sequential loop applied, so
/// thread timing cannot change the result. Only the first
/// Opts.MaxCandidates entries of \p Space are searched when that is
/// positive. \p Ctx folds a candidate's recipe into its exact
/// KernelStats; no schedule is built.
///
/// With Opts.Prune, a candidate is skipped when \p Bound of its stats
/// (admissible: never above \p Latency of the same stats) strictly
/// exceeds the best latency scored so far. A skipped candidate therefore
/// satisfies true >= bound > best-at-check >= final-best — it can neither
/// win nor tie the winner, so the argmin over the scored subset returns
/// the exact exhaustive winner. Under a pool the running best is a racy
/// atomic; a thread reading a stale (larger) best prunes less, never
/// wrongly, so the guarantee holds regardless of interleaving while the
/// *set* of scored candidates may vary run to run. Opts.SeedCandidate is
/// scored before the sweep so the running best starts strong.
template <typename Candidate, typename LatencyFn, typename BoundFn>
TunedKernel searchCandidates(const std::vector<Candidate> &Space,
                             const SearchContext &Ctx,
                             const LatencyFn &Latency, const BoundFn &Bound,
                             const TunerOptions &Opts, ThreadPool *Pool) {
  size_t Count = Space.size();
  if (Opts.MaxCandidates > 0)
    Count = std::min(Count, static_cast<size_t>(Opts.MaxCandidates));
  struct Scored {
    KernelStats Stats;
    double LatencySeconds = 0;
    bool WasScored = false;
  };
  std::vector<Scored> Slots(Count);
  std::atomic<double> RunningBest{1e30};
  std::atomic<uint64_t> Pruned{0};
  auto Visit = [&](size_t I, bool MayPrune) {
    double Start = steadyNowSeconds();
    KernelStats S = Ctx.stats(Space[I]);
    if (MayPrune) {
      double Best = RunningBest.load(std::memory_order_relaxed);
      if (Best < 1e30 && Bound(S) > Best) {
        Pruned.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    double L = Latency(S);
    CandidateCostHist.record(steadyNowSeconds() - Start);
    Slots[I] = Scored{S, L, true};
    double Cur = RunningBest.load(std::memory_order_relaxed);
    while (L < Cur && !RunningBest.compare_exchange_weak(
                          Cur, L, std::memory_order_relaxed)) {
    }
  };

  bool Seeded = Opts.SeedCandidate >= 0 &&
                static_cast<size_t>(Opts.SeedCandidate) < Count;
  if (Seeded) {
    Visit(static_cast<size_t>(Opts.SeedCandidate), /*MayPrune=*/false);
    SeededTotal.fetch_add(1);
  }
  auto Sweep = [&](size_t I) {
    if (!Slots[I].WasScored) // Else the seed, already scored.
      Visit(I, Opts.Prune);
  };
  if (Pool && Count > 1)
    Pool->parallelFor(Count, Sweep);
  else
    for (size_t I = 0; I < Count; ++I)
      Sweep(I);

  TunedKernel Best;
  Best.LatencySeconds = 1e30;
  for (size_t I = 0; I < Slots.size(); ++I) {
    if (!Slots[I].WasScored)
      continue;
    Best.CandidateLatencies.push_back(Slots[I].LatencySeconds);
    Best.ScoredIndices.push_back(static_cast<int>(I));
    if (Slots[I].LatencySeconds < Best.LatencySeconds) {
      Best.LatencySeconds = Slots[I].LatencySeconds;
      Best.Stats = Slots[I].Stats;
      Best.BestCandidateIndex = static_cast<int>(I);
    }
  }
  Best.CandidatesTried = static_cast<int>(Best.CandidateLatencies.size());
  Best.SpaceSize = static_cast<int>(Count);
  ScoredTotal.fetch_add(static_cast<uint64_t>(Best.CandidatesTried));
  PrunedTotal.fetch_add(Pruned.load());
  return Best;
}

} // namespace

uint64_t unit::tunerInvocations() { return TunerRuns.load(); }
uint64_t unit::tunerCandidatesScored() { return ScoredTotal.load(); }
uint64_t unit::tunerPrunedCandidates() { return PrunedTotal.load(); }
uint64_t unit::tunerTransferSeeds() { return SeededTotal.load(); }
obs::HistogramSnapshot unit::tunerCandidateCost() {
  return CandidateCostHist.snapshot();
}

namespace {

/// Annotates a finished search's span with what the search did — the
/// scored/pruned/seed numbers the dump_trace acceptance scenario greps.
void annotateSearch(obs::Span &Span, const TunedKernel &Best,
                    const TunerOptions &Opts) {
  Span.annotate("space", static_cast<uint64_t>(Best.SpaceSize));
  Span.annotate("scored", static_cast<uint64_t>(Best.CandidatesTried));
  Span.annotate("pruned",
                static_cast<uint64_t>(Best.SpaceSize - Best.CandidatesTried));
  if (Opts.SeedCandidate >= 0)
    Span.annotate("seed", static_cast<uint64_t>(Opts.SeedCandidate));
}

} // namespace

TunedKernel unit::tuneCpu(const ComputeOpRef &Op, const MatchResult &Match,
                          const CpuMachine &Machine, ThreadPool *Pool,
                          const TunerOptions &Opts) {
  TunerRuns.fetch_add(1);
  obs::Span Search("tuner_search");
  TunedKernel Best = searchCandidates(
      defaultCpuTuningPairs(), SearchContext(Op, Match),
      [&](const KernelStats &S) { return cpuLatencySeconds(S, Machine); },
      [&](const KernelStats &S) {
        return cpuLatencyLowerBoundSeconds(S, Machine);
      },
      Opts, Pool);
  annotateSearch(Search, Best, Opts);
  return Best;
}

TunedKernel unit::tuneGpu(const ComputeOpRef &Op, const MatchResult &Match,
                          const GpuMachine &Machine, ThreadPool *Pool,
                          const TunerOptions &Opts) {
  TunerRuns.fetch_add(1);
  obs::Span Search("tuner_search");
  TunedKernel Best = searchCandidates(
      defaultGpuTuningConfigs(), SearchContext(Op, Match),
      [&](const KernelStats &S) { return gpuLatencySeconds(S, Machine); },
      [&](const KernelStats &S) {
        return gpuLatencyLowerBoundSeconds(S, Machine);
      },
      Opts, Pool);
  annotateSearch(Search, Best, Opts);
  return Best;
}

CpuAblation unit::cpuAblation(const ComputeOpRef &Op,
                              const MatchResult &Match,
                              const CpuMachine &Machine) {
  SearchContext Ctx(Op, Match);
  CpuAblation A;
  A.ParallelOnly =
      cpuLatencySeconds(Ctx.stats(CpuTuningPair{3000, 1}), Machine);
  A.ParallelUnroll =
      cpuLatencySeconds(Ctx.stats(CpuTuningPair{3000, 8}), Machine);
  A.Tuned = tuneCpu(Op, Match, Machine).LatencySeconds;
  return A;
}

GpuAblation unit::gpuAblation(const ComputeOpRef &Op,
                              const MatchResult &Match,
                              const GpuMachine &Machine) {
  SearchContext Ctx(Op, Match);
  GpuAblation A;
  A.Generic = gpuLatencySeconds(Ctx.stats(GpuTuningConfig{2, 1}), Machine);
  // "Split the reduction dimension by 64": one segment per 64 reduction
  // elements, expressed as a segment count on the outer reduce loop.
  int64_t ReduceElems = 1;
  for (const IterVar &IV : Op->reduceAxes())
    ReduceElems *= IV->extent();
  int64_t Segments = std::clamp<int64_t>(ReduceElems / 64, 1, 64);
  A.SplitK =
      gpuLatencySeconds(Ctx.stats(GpuTuningConfig{2, Segments}), Machine);
  A.Tuned = tuneGpu(Op, Match, Machine).LatencySeconds;
  return A;
}
