//===- tuner/Tuner.cpp -----------------------------------------------------===//

#include "tuner/Tuner.h"

#include "obs/Histogram.h"
#include "obs/Trace.h"
#include "support/ErrorHandling.h"
#include "support/ThreadPool.h"
#include "support/Time.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <optional>

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

/// Wall time to score one candidate (plan build + analysis + cost
/// model), the unit_tuner_candidate_seconds family of the server's
/// `metrics` reply. Process-wide like the counters above.
obs::LatencyHistogram CandidateCostHist;

/// Extent/cost facts the lower bounds need, gathered once per search:
/// the pre-schedule outer loop extents (from one reorganizeLoops pass)
/// and the candidate-independent KernelStats fields. Both plan builders
/// operate on these extents with pure integer arithmetic, so the bound
/// functions can replay that arithmetic without building a schedule.
struct BoundContext {
  std::vector<int64_t> Dp;     ///< OuterDataParallel extents, plan order.
  std::vector<int64_t> Reduce; ///< OuterReduce extents, plan order.
  IntrinsicCost Cost;
  double OutputBytes = 0, InputBytes = 0, WeightBytes = 0;
};

BoundContext makeBoundContext(const ComputeOpRef &Op,
                              const MatchResult &Match) {
  BoundContext Ctx;
  TensorizePlan Plan = reorganizeLoops(Op, Match);
  for (const IterVar &IV : Plan.OuterDataParallel)
    Ctx.Dp.push_back(IV->extent());
  for (const IterVar &IV : Plan.OuterReduce)
    Ctx.Reduce.push_back(IV->extent());
  Ctx.Cost = Match.Intrinsic->cost();
  // Same footprint convention as analyzeTensorized: the last input of a
  // multi-input op acts like weights.
  auto FootprintBytes = [](const TensorRef &T) {
    return static_cast<double>(T->numElements()) * T->dtype().lanesBytes();
  };
  Ctx.OutputBytes = FootprintBytes(Op->output());
  const std::vector<TensorRef> &Inputs = Op->inputs();
  for (size_t I = 0; I < Inputs.size(); ++I) {
    if (I + 1 == Inputs.size() && Inputs.size() >= 2)
      Ctx.WeightBytes += FootprintBytes(Inputs[I]);
    else
      Ctx.InputBytes += FootprintBytes(Inputs[I]);
  }
  return Ctx;
}

KernelStats synthesizedStats(const BoundContext &Ctx, double Calls,
                             double Unroll, double ParallelExtent,
                             double SplitK) {
  KernelStats S;
  S.Calls = Calls;
  S.Cost = Ctx.Cost;
  S.MacsPerCall = Ctx.Cost.MacsPerInstr;
  S.Unroll = Unroll;
  S.ParallelExtent = ParallelExtent;
  S.SplitK = SplitK;
  S.OutputBytes = Ctx.OutputBytes;
  S.InputBytes = Ctx.InputBytes;
  S.WeightBytes = Ctx.WeightBytes;
  return S;
}

/// Admissible lower bound on what scoring \p Pair would report: replays
/// buildCpuPlan's unroll-split and fuse arithmetic on the raw extents —
/// Calls, Unroll, and ParallelExtent come out exact — and prices the
/// result with LoadsPerCall/guards at their optimistic floor
/// (cpuLatencyLowerBoundSeconds). Never above the real latency.
double cpuPairLowerBound(const BoundContext &Ctx, const CpuTuningPair &Pair,
                         const CpuMachine &Machine) {
  std::vector<int64_t> Dp = Ctx.Dp;
  double Unroll = 1;
  int64_t Budget = std::max<int64_t>(1, Pair.UnrollFactor);
  for (int I = static_cast<int>(Dp.size()) - 1; I >= 0 && Budget > 1; --I) {
    int64_t Factor = chooseUnrollFactor(Budget, Dp[I]);
    if (Factor <= 1)
      continue;
    Dp[I] = (Dp[I] + Factor - 1) / Factor;
    Unroll *= static_cast<double>(Factor);
    Budget = (Budget + Factor - 1) / Factor;
  }
  double Chunks = 1;
  if (!Dp.empty()) {
    int64_t Prod = Dp[0];
    for (size_t Next = 1; Next < Dp.size(); ++Next) {
      if (Prod * Dp[Next] > Pair.ParallelLimit)
        break;
      Prod *= Dp[Next];
    }
    Chunks = static_cast<double>(Prod);
  }
  double Calls = Unroll;
  for (int64_t E : Dp)
    Calls *= static_cast<double>(E);
  for (int64_t E : Ctx.Reduce)
    Calls *= static_cast<double>(E);
  return cpuLatencyLowerBoundSeconds(
      synthesizedStats(Ctx, Calls, Unroll, Chunks, /*SplitK=*/1), Machine);
}

/// GPU analog of cpuPairLowerBound. gpuLatencySeconds reads no operand
/// loads or residue guards, and every stat it does read is replayed
/// exactly here — so this bound *equals* the latency the scorer would
/// compute, making GPU pruning skip precisely the losing candidates.
double gpuConfigLowerBound(const BoundContext &Ctx,
                           const GpuTuningConfig &Config,
                           const GpuMachine &Machine) {
  std::vector<int64_t> Dp = Ctx.Dp;
  std::vector<int64_t> Reduce = Ctx.Reduce;
  double Unroll = 1;
  double SplitK = 1;
  int64_t Segments = 0;
  if (Config.SplitK > 1 && !Reduce.empty()) {
    int64_t K = Reduce[0];
    int64_t Want = std::min(Config.SplitK, K);
    int64_t Factor = (K + Want - 1) / Want;
    Segments = (K + Factor - 1) / Factor; // Split outer = the segments.
    Reduce[0] = Factor;                   // Split inner = serial rest.
    SplitK = static_cast<double>(Segments);
  }
  for (size_t I = 0; I < Dp.size() && I < 2; ++I) {
    int64_t Factor = std::min(Config.P, Dp[I]);
    if (Factor <= 1)
      continue;
    Dp[I] = (Dp[I] + Factor - 1) / Factor;
    Unroll *= static_cast<double>(Factor);
  }
  double Par = Dp.empty() ? 1.0
                          : static_cast<double>(Dp[0]) *
                                (Dp.size() > 1 ? static_cast<double>(Dp[1])
                                               : 1.0);
  double Calls = Unroll;
  for (int64_t E : Dp)
    Calls *= static_cast<double>(E);
  if (Segments > 0)
    Calls *= static_cast<double>(Segments);
  for (int64_t E : Reduce)
    Calls *= static_cast<double>(E);
  return gpuLatencyLowerBoundSeconds(
      synthesizedStats(Ctx, Calls, Unroll, Par, SplitK), Machine);
}

/// Shared candidate search. Builds and scores candidates — serially, or
/// concurrently on \p Pool — into an index-stable slot vector, then picks
/// the winner with a strict-less argmin over ascending indices: the same
/// "first minimal latency wins" rule the sequential loop applied, so
/// thread timing cannot change the result. Only stats are retained per
/// slot; the winning plan is rebuilt once at the end (plan construction
/// is deterministic), so peak memory stays one plan regardless of the
/// candidate count.
///
/// With Opts.Prune, a candidate is skipped when \p Bound (admissible: no
/// candidate's true latency is below its bound) strictly exceeds the best
/// latency scored so far. A skipped candidate therefore satisfies
/// true >= bound > best-at-check >= final-best — it can neither win nor
/// tie the winner, so the argmin over the scored subset returns the exact
/// exhaustive winner. Under a pool the running best is a racy atomic; a
/// thread reading a stale (larger) best prunes less, never wrongly, so
/// the guarantee holds regardless of interleaving while the *set* of
/// scored candidates may vary run to run. Opts.SeedCandidate is scored
/// before the sweep so the running best starts strong.
template <typename Candidate, typename BuildFn, typename LatencyFn,
          typename BoundFn>
TunedKernel searchCandidates(const std::vector<Candidate> &Candidates,
                             const BuildFn &Build, const LatencyFn &Latency,
                             const BoundFn &Bound, const TunerOptions &Opts,
                             ThreadPool *Pool) {
  struct Scored {
    KernelStats Stats;
    double LatencySeconds = 0;
    bool WasScored = false;
  };
  std::vector<Scored> Slots(Candidates.size());
  std::atomic<double> RunningBest{1e30};
  auto ScoreOne = [&](size_t I) {
    double Start = steadyNowSeconds();
    TensorizePlan Plan = Build(Candidates[I]);
    KernelStats Stats = analyzeTensorized(Plan);
    double L = Latency(Stats);
    CandidateCostHist.record(steadyNowSeconds() - Start);
    Slots[I] = Scored{Stats, L, true};
    double Cur = RunningBest.load(std::memory_order_relaxed);
    while (L < Cur && !RunningBest.compare_exchange_weak(
                          Cur, L, std::memory_order_relaxed)) {
    }
  };

  bool Seeded = Opts.SeedCandidate >= 0 &&
                static_cast<size_t>(Opts.SeedCandidate) < Candidates.size();
  if (Seeded) {
    ScoreOne(static_cast<size_t>(Opts.SeedCandidate));
    SeededTotal.fetch_add(1);
  }

  std::atomic<uint64_t> Pruned{0};
  auto Visit = [&](size_t I) {
    if (Slots[I].WasScored)
      return; // The seed, already scored.
    if (Opts.Prune) {
      double Best = RunningBest.load(std::memory_order_relaxed);
      if (Best < 1e30 && Bound(Candidates[I]) > Best) {
        Pruned.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    ScoreOne(I);
  };
  if (Pool && Candidates.size() > 1)
    Pool->parallelFor(Candidates.size(), Visit);
  else
    for (size_t I = 0; I < Candidates.size(); ++I)
      Visit(I);

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
  if (Best.BestCandidateIndex >= 0)
    Best.Plan = Build(Candidates[static_cast<size_t>(Best.BestCandidateIndex)]);
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
  // The bound context costs one plan build; only pay it when pruning can
  // use it.
  std::optional<BoundContext> Ctx;
  if (Opts.Prune)
    Ctx.emplace(makeBoundContext(Op, Match));
  TunedKernel Best = searchCandidates(
      Pairs,
      [&](const CpuTuningPair &Pair) { return buildCpuPlan(Op, Match, Pair); },
      [&](const KernelStats &S) { return cpuLatencySeconds(S, Machine); },
      [&](const CpuTuningPair &Pair) {
        return cpuPairLowerBound(*Ctx, Pair, Machine);
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
  std::optional<BoundContext> Ctx;
  if (Opts.Prune)
    Ctx.emplace(makeBoundContext(Op, Match));
  TunedKernel Best = searchCandidates(
      Configs,
      [&](const GpuTuningConfig &Config) {
        return buildGpuPlan(Op, Match, Config);
      },
      [&](const KernelStats &S) { return gpuLatencySeconds(S, Machine); },
      [&](const GpuTuningConfig &Config) {
        return gpuConfigLowerBound(*Ctx, Config, Machine);
      },
      Opts, Pool);
  annotateSearch(Search, Best, Opts);
  return Best;
}

CpuAblation unit::cpuAblation(const ComputeOpRef &Op,
                              const MatchResult &Match,
                              const CpuMachine &Machine) {
  CpuAblation A;
  {
    TensorizePlan Plan = buildCpuPlan(Op, Match, {3000, 1});
    A.ParallelOnly = cpuLatencySeconds(analyzeTensorized(Plan), Machine);
  }
  {
    TensorizePlan Plan = buildCpuPlan(Op, Match, {3000, 8});
    A.ParallelUnroll = cpuLatencySeconds(analyzeTensorized(Plan), Machine);
  }
  A.Tuned = tuneCpu(Op, Match, Machine).LatencySeconds;
  return A;
}

GpuAblation unit::gpuAblation(const ComputeOpRef &Op,
                              const MatchResult &Match,
                              const GpuMachine &Machine) {
  GpuAblation A;
  {
    TensorizePlan Plan = buildGpuPlan(Op, Match, {2, 1});
    A.Generic = gpuLatencySeconds(analyzeTensorized(Plan), Machine);
  }
  {
    // "Split the reduction dimension by 64": one segment per 64 reduction
    // elements, expressed as a segment count on the outer reduce loop.
    int64_t ReduceElems = 1;
    for (const IterVar &IV : Op->reduceAxes())
      ReduceElems *= IV->extent();
    int64_t Segments =
        std::clamp<int64_t>(ReduceElems / 64, 1, 64);
    TensorizePlan Plan = buildGpuPlan(Op, Match, {2, Segments});
    A.SplitK = gpuLatencySeconds(analyzeTensorized(Plan), Machine);
  }
  A.Tuned = tuneGpu(Op, Match, Machine).LatencySeconds;
  return A;
}
