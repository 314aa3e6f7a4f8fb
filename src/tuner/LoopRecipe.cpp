//===- tuner/LoopRecipe.cpp ------------------------------------------------===//

#include "tuner/LoopRecipe.h"

#include "support/ErrorHandling.h"

#include <algorithm>
#include <tuple>

using namespace unit;

OuterLoops unit::outerLoops(const ComputeOp &Op, const MatchResult &Match) {
  OuterLoops Loops;
  Loops.Dp.reserve(Op.axes().size());
  Loops.Reduce.reserve(Op.reduceAxes().size());
  for (const IterVar &IV : Op.allAxes()) {
    IterVar InstrAxis = Match.Mapping.instrAxisFor(IV.get());
    int64_t Extent = IV->extent() / (InstrAxis ? InstrAxis->extent() : 1);
    (IV->isReduce() ? Loops.Reduce : Loops.Dp).push_back(Extent);
  }
  return Loops;
}

void LoopRecipe::addSplit(SplitRole Role, size_t Loop, int64_t Factor) {
  if (NumSplits == MaxSplits)
    reportFatalError("loop recipe: more than 8 splits");
  Splits[NumSplits++] = {Role, static_cast<uint32_t>(Loop), Factor};
}

const LoopRecipe::Split *LoopRecipe::tileOf(size_t Loop) const {
  for (const Split &S : *this)
    if (S.Role == SplitRole::UnrollTile && S.Loop == Loop)
      return &S;
  return nullptr;
}

const LoopRecipe::Split *LoopRecipe::splitK() const {
  for (const Split &S : *this)
    if (S.Role == SplitRole::SplitK)
      return &S;
  return nullptr;
}

int64_t LoopRecipe::outerExtent(const OuterLoops &Loops, size_t Loop) const {
  int64_t Extent = Loops.Dp[Loop];
  const Split *Tile = tileOf(Loop);
  return Tile ? (Extent + Tile->Factor - 1) / Tile->Factor : Extent;
}

void LoopRecipe::fuseParallelPrefix(const OuterLoops &Loops, int64_t Limit) {
  if (Loops.Dp.empty())
    return;
  int64_t Prod = outerExtent(Loops, 0);
  for (FusedPrefix = 1; FusedPrefix < Loops.Dp.size(); ++FusedPrefix) {
    int64_t Next = outerExtent(Loops, FusedPrefix);
    if (Prod * Next > Limit)
      break;
    Prod *= Next;
  }
}

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

LoopRecipe unit::cpuRecipe(const OuterLoops &Loops,
                           const CpuTuningPair &Pair) {
  LoopRecipe R;
  // Second breaking point: tile the innermost DP outer loops to the
  // unroll budget; the tiles sink below the reduction and unroll.
  int64_t Budget = std::max<int64_t>(1, Pair.UnrollFactor);
  for (size_t I = Loops.Dp.size(); I-- > 0 && Budget > 1;) {
    int64_t Factor = chooseUnrollFactor(Budget, Loops.Dp[I]);
    if (Factor <= 1)
      continue;
    R.addSplit(LoopRecipe::SplitRole::UnrollTile, I, Factor);
    Budget = (Budget + Factor - 1) / Factor;
  }
  R.fuseParallelPrefix(Loops, Pair.ParallelLimit);
  return R;
}

LoopRecipe unit::gpuRecipe(const OuterLoops &Loops,
                           const GpuTuningConfig &Config) {
  LoopRecipe R;
  // Split-K: carve the outermost reduction loop into segments that run
  // concurrently on threadIdx (paper §III.C GPU tuning).
  if (Config.SplitK > 1 && !Loops.Reduce.empty()) {
    int64_t K = Loops.Reduce[0];
    int64_t Segments = std::min(Config.SplitK, K);
    R.addSplit(LoopRecipe::SplitRole::SplitK, 0, (K + Segments - 1) / Segments);
  }
  // p x p outer-product accumulation (Fig. 6): tile the two outermost DP
  // loops by p; the tiles stay unrolled in registers.
  for (size_t I = 0; I < Loops.Dp.size() && I < 2; ++I) {
    int64_t Factor = std::min(Config.P, Loops.Dp[I]);
    if (Factor > 1)
      R.addSplit(LoopRecipe::SplitRole::UnrollTile, I, Factor);
  }
  R.bindGpu();
  return R;
}

KernelStats unit::foldRecipe(const LoopRecipe &Recipe, const OuterLoops &Loops,
                             KernelStats S) {
  const LoopRecipe::Split *SplitK = Recipe.splitK();
  bool Gpu = Recipe.gpuBindings();
  S.Calls = 1;
  // [DP outers]: the fused parallel loop, then the rest.
  size_t Fused = Recipe.fusedPrefix();
  if (Fused > 0) {
    int64_t Extent = 1;
    for (size_t I = 0; I < Fused; ++I)
      Extent *= Recipe.outerExtent(Loops, I);
    S.foldLoop(Extent, ForKind::Parallel, /*IsReduce=*/false);
  }
  for (size_t I = Fused; I < Loops.Dp.size(); ++I) {
    ForKind Kind = ForKind::Serial;
    if (Gpu && I < 2)
      Kind = I == 0 ? ForKind::GpuBlockX : ForKind::GpuBlockY;
    S.foldLoop(Recipe.outerExtent(Loops, I), Kind, /*IsReduce=*/false);
  }
  // [k-segments] [reduce]
  if (SplitK) {
    int64_t K = Loops.Reduce[SplitK->Loop];
    S.foldLoop((K + SplitK->Factor - 1) / SplitK->Factor,
               Gpu ? ForKind::GpuThreadX : ForKind::Serial, /*IsReduce=*/true);
  }
  for (size_t I = 0; I < Loops.Reduce.size(); ++I)
    S.foldLoop(SplitK && SplitK->Loop == I ? SplitK->Factor : Loops.Reduce[I],
               ForKind::Serial, /*IsReduce=*/true);
  // [tiles], outermost loop's first.
  for (size_t I = 0; I < Loops.Dp.size(); ++I)
    if (const LoopRecipe::Split *Tile = Recipe.tileOf(I))
      S.foldLoop(Tile->Factor, ForKind::Unrolled, /*IsReduce=*/false);
  // Guards in split order: UsefulFraction is a floating-point product.
  for (const LoopRecipe::Split &Split : Recipe) {
    const std::vector<int64_t> &Extents =
        Split.Role == LoopRecipe::SplitRole::SplitK ? Loops.Reduce : Loops.Dp;
    S.foldSplit(Extents[Split.Loop], Split.Factor);
  }
  return S;
}

TensorizePlan unit::applyRecipe(const ComputeOpRef &Op,
                                const MatchResult &Match,
                                const LoopRecipe &Recipe) {
  TensorizePlan Plan = reorganizeLoops(Op, Match);
  Schedule &S = *Plan.Sched;
  std::vector<IterVar> Dp = Plan.OuterDataParallel;
  std::vector<IterVar> Reduce = Plan.OuterReduce;
  std::vector<IterVar> Tiles(Dp.size());
  IterVar KSegments;
  for (const LoopRecipe::Split &Split : Recipe) {
    if (Split.Role == LoopRecipe::SplitRole::UnrollTile) {
      std::tie(Dp[Split.Loop], Tiles[Split.Loop]) =
          S.split(Dp[Split.Loop], Split.Factor);
    } else {
      std::tie(KSegments, Reduce[Split.Loop]) =
          S.split(Reduce[Split.Loop], Split.Factor);
    }
  }
  Tiles.erase(std::remove(Tiles.begin(), Tiles.end(), nullptr), Tiles.end());

  std::vector<IterVar> Order;
  Order.reserve(S.leaves().size());
  Order.insert(Order.end(), Dp.begin(), Dp.end());
  if (KSegments)
    Order.push_back(KSegments);
  Order.insert(Order.end(), Reduce.begin(), Reduce.end());
  Order.insert(Order.end(), Tiles.begin(), Tiles.end());
  S.reorder(Order);

  if (Recipe.fusedPrefix() > 0) {
    IterVar Fused = Dp[0];
    for (size_t I = 1; I < Recipe.fusedPrefix(); ++I)
      Fused = S.fuse(Fused, Dp[I]);
    S.parallel(Fused);
  }
  if (Recipe.gpuBindings()) {
    if (!Dp.empty())
      S.bind(Dp[0], ForKind::GpuBlockX);
    if (Dp.size() > 1)
      S.bind(Dp[1], ForKind::GpuBlockY);
    if (KSegments)
      S.bind(KSegments, ForKind::GpuThreadX);
  }
  for (const IterVar &Tile : Tiles)
    S.unroll(Tile);
  return Plan;
}
