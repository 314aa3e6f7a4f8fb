//===- tuner/Tuner.cpp -----------------------------------------------------===//

#include "tuner/Tuner.h"

#include "obs/Histogram.h"
#include "obs/Trace.h"
#include "support/ErrorHandling.h"
#include "support/ThreadPool.h"
#include "support/Time.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>

using namespace unit;

/// Tile factor for unrolling a loop of \p Extent with \p Budget: prefer
/// the largest exact divisor (no residue guard) unless it wastes more than
/// half the budget, in which case take the guarded full budget — prime
/// extents like the 17x17 and 71x71 outputs of Table I workloads #1/#4
/// have no usable divisor and inherit `likely` guards (paper §VI.B).
static int64_t chooseUnrollFactor(int64_t Budget, int64_t Extent) {
  if (Budget >= Extent)
    return Extent;
  int64_t Divisor = 1;
  for (int64_t F = 2; F <= Budget; ++F)
    if (Extent % F == 0)
      Divisor = F;
  return 2 * Divisor >= Budget ? Divisor : Budget;
}

TensorizePlan unit::buildCpuPlan(const ComputeOpRef &Op,
                                 const MatchResult &Match,
                                 const CpuTuningPair &Pair) {
  TensorizePlan Plan = reorganizeLoops(Op, Match);
  Schedule &S = *Plan.Sched;

  // --- Second breaking point: tile the innermost data-parallel outer
  // loops to an unroll budget and sink them below the reduction (Fig. 7).
  std::vector<IterVar> RemainingDP = Plan.OuterDataParallel;
  std::vector<IterVar> UnrollParts;
  int64_t Budget = std::max<int64_t>(1, Pair.UnrollFactor);
  for (int I = static_cast<int>(RemainingDP.size()) - 1;
       I >= 0 && Budget > 1; --I) {
    int64_t Extent = RemainingDP[I]->extent();
    int64_t Factor = chooseUnrollFactor(Budget, Extent);
    if (Factor <= 1)
      continue;
    auto [Outer, Inner] = S.split(RemainingDP[I], Factor);
    RemainingDP[I] = Outer;
    UnrollParts.insert(UnrollParts.begin(), Inner);
    Budget = (Budget + Factor - 1) / Factor;
  }

  // --- Leaf order: [parallel/serial DP] [reduce] [unrolled DP] [inner].
  std::vector<IterVar> Order = RemainingDP;
  Order.insert(Order.end(), Plan.OuterReduce.begin(), Plan.OuterReduce.end());
  Order.insert(Order.end(), UnrollParts.begin(), UnrollParts.end());
  S.reorder(Order);

  // --- First breaking point: fuse a prefix of the data-parallel loops
  // while the fused extent stays below the parallel limit, then
  // parallelize the fused loop.
  if (!RemainingDP.empty()) {
    IterVar Fused = RemainingDP[0];
    int64_t Prod = Fused->extent();
    for (size_t Next = 1; Next < RemainingDP.size(); ++Next) {
      if (Prod * RemainingDP[Next]->extent() > Pair.ParallelLimit)
        break;
      Prod *= RemainingDP[Next]->extent();
      Fused = S.fuse(Fused, RemainingDP[Next]);
    }
    S.parallel(Fused);
  }
  for (const IterVar &U : UnrollParts)
    S.unroll(U);
  return Plan;
}

TensorizePlan unit::buildGpuPlan(const ComputeOpRef &Op,
                                 const MatchResult &Match,
                                 const GpuTuningConfig &Config) {
  TensorizePlan Plan = reorganizeLoops(Op, Match);
  Schedule &S = *Plan.Sched;

  // --- Split-K: carve the outermost reduction loop into segments that
  // run concurrently on threadIdx (paper §III.C GPU tuning).
  std::vector<IterVar> ReduceLoops = Plan.OuterReduce;
  IterVar KSegments;
  if (Config.SplitK > 1 && !ReduceLoops.empty()) {
    IterVar K = ReduceLoops[0];
    int64_t Segments = std::min(Config.SplitK, K->extent());
    int64_t Factor = (K->extent() + Segments - 1) / Segments;
    auto [Seg, Rest] = S.split(K, Factor);
    KSegments = Seg;
    ReduceLoops[0] = Rest;
  }

  // --- p x p outer-product accumulation (Fig. 6): tile the two outermost
  // data-parallel loops by p; the tile loops stay unrolled in registers.
  std::vector<IterVar> BlockLoops = Plan.OuterDataParallel;
  std::vector<IterVar> UnrollParts;
  for (size_t I = 0; I < BlockLoops.size() && I < 2; ++I) {
    int64_t Factor = std::min(Config.P, BlockLoops[I]->extent());
    if (Factor <= 1)
      continue;
    auto [Outer, Inner] = S.split(BlockLoops[I], Factor);
    BlockLoops[I] = Outer;
    UnrollParts.push_back(Inner);
  }

  // --- Leaf order: blocks, split-K segments, serial reduction, unrolled
  // accumulator tiles, tensorized inner loops.
  std::vector<IterVar> Order = BlockLoops;
  if (KSegments)
    Order.push_back(KSegments);
  Order.insert(Order.end(), ReduceLoops.begin(), ReduceLoops.end());
  Order.insert(Order.end(), UnrollParts.begin(), UnrollParts.end());
  S.reorder(Order);

  if (!BlockLoops.empty())
    S.bind(BlockLoops[0], ForKind::GpuBlockX);
  if (BlockLoops.size() > 1)
    S.bind(BlockLoops[1], ForKind::GpuBlockY);
  if (KSegments)
    S.bind(KSegments, ForKind::GpuThreadX);
  for (const IterVar &U : UnrollParts)
    S.unroll(U);
  return Plan;
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

/// What every candidate of one search shares, read from the operation
/// and the match: the outer loop extents the plan builders split and
/// fuse, and the match's stats. The Rewriter tiles each mapped op axis
/// by its instruction extent, which the Inspector guarantees divides it,
/// so the reorganized plan's outer loops are the op axes, in allAxes()
/// order, each divided by its mapped instruction extent, and carry no
/// residue guard. The plan builders only split, fuse, reorder and
/// annotate those outer loops, so a candidate's stats follow from its
/// tuning knobs by integer arithmetic on the extents (cpuPairStats,
/// gpuConfigStats). The instruction cost, the footprints and
/// LoadsPerCall carry over from Base unchanged: operand roles read only
/// the strides along the tile-inner loops, and no candidate touches
/// those loops.
struct SearchContext {
  std::vector<int64_t> Dp;     ///< Outer data-parallel extents.
  std::vector<int64_t> Reduce; ///< Outer reduce extents.
  KernelStats Base;            ///< analyzeMatch of the search.
};

SearchContext makeSearchContext(const ComputeOpRef &Op,
                                const MatchResult &Match) {
  SearchContext Ctx;
  for (const IterVar &IV : Op->allAxes()) {
    IterVar InstrAxis = Match.Mapping.instrAxisFor(IV.get());
    int64_t Extent = IV->extent() / (InstrAxis ? InstrAxis->extent() : 1);
    (IV->isReduce() ? Ctx.Reduce : Ctx.Dp).push_back(Extent);
  }
  Ctx.Base = analyzeMatch(*Op, Match);
  return Ctx;
}

/// Schedule::split's arithmetic on one extent: returns the outer extent
/// and folds the split's residue guard and padding waste into \p S the
/// way analyzeTensorized does (call in split order: UsefulFraction is a
/// floating-point product).
int64_t foldSplit(KernelStats &S, int64_t Extent, int64_t Factor) {
  assert(Factor > 0 && Factor <= Extent && "split factor out of range");
  int64_t Outer = (Extent + Factor - 1) / Factor;
  if (Extent % Factor != 0) {
    S.HasResidueGuards = true;
    S.UsefulFraction *= static_cast<double>(Extent) /
                        (static_cast<double>(Outer) *
                         static_cast<double>(Factor));
  }
  return Outer;
}

/// The exact stats analyzeTensorized(buildCpuPlan(Op, Match, Pair))
/// reports, without building the plan: replays buildCpuPlan's unroll
/// splits and fuse prefix on the extents, then multiplies the loop
/// extents in the built schedule's leaf order. Allocates nothing: the
/// unroll tiles sit in a fixed array, since every tile at least halves
/// the budget and an int64 budget therefore tiles at most 64 loops.
KernelStats cpuPairStats(const SearchContext &Ctx, const CpuTuningPair &Pair) {
  KernelStats S = Ctx.Base;
  const std::vector<int64_t> &Dp = Ctx.Dp;
  // Second breaking point: unroll tiles, innermost loop first. Tile T
  // splits loop TileLoop[T] into TileOuter[T] x TileFactor[T]; the loop
  // index falls as T grows.
  std::array<size_t, 64> TileLoop;
  std::array<int64_t, 64> TileOuter, TileFactor;
  size_t NumTiles = 0;
  int64_t Budget = std::max<int64_t>(1, Pair.UnrollFactor);
  for (size_t I = Dp.size(); I-- > 0 && Budget > 1;) {
    int64_t Factor = chooseUnrollFactor(Budget, Dp[I]);
    if (Factor <= 1)
      continue;
    assert(NumTiles < TileLoop.size() && "tile count past the budget bound");
    TileLoop[NumTiles] = I;
    TileOuter[NumTiles] = foldSplit(S, Dp[I], Factor);
    TileFactor[NumTiles++] = Factor;
    Budget = (Budget + Factor - 1) / Factor;
  }
  // Loop I's extent after its unroll split.
  auto OuterExtent = [&](size_t I) {
    for (size_t T = 0; T < NumTiles; ++T)
      if (TileLoop[T] == I)
        return TileOuter[T];
    return Dp[I];
  };
  // First breaking point: the fused, parallel prefix.
  size_t Fused = 0;
  int64_t Prod = 1;
  if (!Dp.empty()) {
    Prod = OuterExtent(0);
    for (Fused = 1; Fused < Dp.size(); ++Fused) {
      int64_t Next = OuterExtent(Fused);
      if (Prod * Next > Pair.ParallelLimit)
        break;
      Prod *= Next;
    }
  }
  // Leaf order: [parallel] [serial DP] [reduce] [unrolled DP] [inner].
  S.Calls = static_cast<double>(Prod);
  S.ParallelExtent = static_cast<double>(Prod);
  for (size_t I = Fused; I < Dp.size(); ++I)
    S.Calls *= static_cast<double>(OuterExtent(I));
  for (int64_t E : Ctx.Reduce)
    S.Calls *= static_cast<double>(E);
  for (size_t T = NumTiles; T-- > 0;) { // Outermost tile first.
    S.Calls *= static_cast<double>(TileFactor[T]);
    S.Unroll *= static_cast<double>(TileFactor[T]);
  }
  return S;
}

/// GPU analog of cpuPairStats, replaying buildGpuPlan: the split-K split
/// of the outermost reduce loop, then the p x p tiles of the two
/// outermost data-parallel loops. Only those three loops change, so their
/// new extents live in locals.
KernelStats gpuConfigStats(const SearchContext &Ctx,
                           const GpuTuningConfig &Config) {
  KernelStats S = Ctx.Base;
  const std::vector<int64_t> &Dp = Ctx.Dp;
  const std::vector<int64_t> &Reduce = Ctx.Reduce;
  int64_t Segments = 0; // No split-K loop.
  // Reduce[0] after the split-K split.
  int64_t FirstReduce = Reduce.empty() ? 0 : Reduce[0];
  if (Config.SplitK > 1 && !Reduce.empty()) {
    int64_t K = Reduce[0];
    int64_t Want = std::min(Config.SplitK, K);
    int64_t Factor = (K + Want - 1) / Want;
    Segments = foldSplit(S, K, Factor);
    FirstReduce = Factor;
  }
  std::array<int64_t, 2> Block = {1, 1}; // Dp[0], Dp[1] after tiling.
  std::array<int64_t, 2> Tiles = {1, 1};
  for (size_t I = 0; I < Dp.size() && I < 2; ++I) {
    Block[I] = Dp[I];
    int64_t Factor = std::min(Config.P, Dp[I]);
    if (Factor <= 1)
      continue;
    Block[I] = foldSplit(S, Dp[I], Factor);
    Tiles[I] = Factor;
  }
  // Leaf order: [blocks x, y] [other DP] [split-K] [reduce] [tiles]
  // [inner].
  S.Calls = 1;
  for (size_t I = 0; I < Dp.size(); ++I) {
    double Extent = static_cast<double>(I < 2 ? Block[I] : Dp[I]);
    S.Calls *= Extent;
    if (I < 2)
      S.ParallelExtent *= Extent;
  }
  if (Segments > 0) {
    S.Calls *= static_cast<double>(Segments);
    S.SplitK *= static_cast<double>(Segments);
  }
  for (size_t I = 0; I < Reduce.size(); ++I)
    S.Calls *= static_cast<double>(I == 0 ? FirstReduce : Reduce[I]);
  for (int64_t F : Tiles) {
    S.Calls *= static_cast<double>(F);
    S.Unroll *= static_cast<double>(F);
  }
  return S;
}

/// Shared candidate search. Scores candidates — serially, or
/// concurrently on \p Pool — into an index-stable slot vector, then picks
/// the winner with a strict-less argmin over ascending indices: the same
/// "first minimal latency wins" rule the sequential loop applied, so
/// thread timing cannot change the result. \p Stats gives a candidate's
/// exact KernelStats by arithmetic; no schedule is built.
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
template <typename Candidate, typename StatsFn, typename LatencyFn,
          typename BoundFn>
TunedKernel searchCandidates(const std::vector<Candidate> &Candidates,
                             const StatsFn &Stats, const LatencyFn &Latency,
                             const BoundFn &Bound, const TunerOptions &Opts,
                             ThreadPool *Pool) {
  struct Scored {
    KernelStats Stats;
    double LatencySeconds = 0;
    bool WasScored = false;
  };
  std::vector<Scored> Slots(Candidates.size());
  std::atomic<double> RunningBest{1e30};
  std::atomic<uint64_t> Pruned{0};
  auto Visit = [&](size_t I, bool MayPrune) {
    double Start = steadyNowSeconds();
    KernelStats S = Stats(Candidates[I]);
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
                static_cast<size_t>(Opts.SeedCandidate) < Candidates.size();
  if (Seeded) {
    Visit(static_cast<size_t>(Opts.SeedCandidate), /*MayPrune=*/false);
    SeededTotal.fetch_add(1);
  }
  auto Sweep = [&](size_t I) {
    if (!Slots[I].WasScored) // Else the seed, already scored.
      Visit(I, Opts.Prune);
  };
  if (Pool && Candidates.size() > 1)
    Pool->parallelFor(Candidates.size(), Sweep);
  else
    for (size_t I = 0; I < Candidates.size(); ++I)
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
  Best.SpaceSize = static_cast<int>(Candidates.size());
  ScoredTotal.fetch_add(static_cast<uint64_t>(Best.CandidatesTried));
  PrunedTotal.fetch_add(Pruned.load());
  return Best;
}

template <typename Candidate>
void truncateCandidates(std::vector<Candidate> &Candidates,
                        int MaxCandidates) {
  if (MaxCandidates > 0 &&
      static_cast<size_t>(MaxCandidates) < Candidates.size())
    Candidates.resize(static_cast<size_t>(MaxCandidates));
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
  std::vector<CpuTuningPair> Pairs = defaultCpuTuningPairs();
  truncateCandidates(Pairs, Opts.MaxCandidates);
  const SearchContext Ctx = makeSearchContext(Op, Match);
  TunedKernel Best = searchCandidates(
      Pairs,
      [&](const CpuTuningPair &Pair) { return cpuPairStats(Ctx, Pair); },
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
  std::vector<GpuTuningConfig> Configs = defaultGpuTuningConfigs();
  truncateCandidates(Configs, Opts.MaxCandidates);
  const SearchContext Ctx = makeSearchContext(Op, Match);
  TunedKernel Best = searchCandidates(
      Configs,
      [&](const GpuTuningConfig &Config) {
        return gpuConfigStats(Ctx, Config);
      },
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
  SearchContext Ctx = makeSearchContext(Op, Match);
  CpuAblation A;
  A.ParallelOnly = cpuLatencySeconds(cpuPairStats(Ctx, {3000, 1}), Machine);
  A.ParallelUnroll = cpuLatencySeconds(cpuPairStats(Ctx, {3000, 8}), Machine);
  A.Tuned = tuneCpu(Op, Match, Machine).LatencySeconds;
  return A;
}

GpuAblation unit::gpuAblation(const ComputeOpRef &Op,
                              const MatchResult &Match,
                              const GpuMachine &Machine) {
  SearchContext Ctx = makeSearchContext(Op, Match);
  GpuAblation A;
  A.Generic = gpuLatencySeconds(gpuConfigStats(Ctx, {2, 1}), Machine);
  // "Split the reduction dimension by 64": one segment per 64 reduction
  // elements, expressed as a segment count on the outer reduce loop.
  int64_t ReduceElems = 1;
  for (const IterVar &IV : Op->reduceAxes())
    ReduceElems *= IV->extent();
  int64_t Segments = std::clamp<int64_t>(ReduceElems / 64, 1, 64);
  A.SplitK = gpuLatencySeconds(gpuConfigStats(Ctx, {2, Segments}), Machine);
  A.Tuned = tuneGpu(Op, Match, Machine).LatencySeconds;
  return A;
}
