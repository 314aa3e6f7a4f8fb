//===- tuner/LoopRecipe.h - Schedule templates as loop recipes -------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A schedule template (paper §III.C: the Fig. 7 CPU tuning pair, the
/// Fig. 6 GPU config, a baseline's fixed blocking) written once, as a
/// recipe over the outer loops the Rewriter leaves around the tensorized
/// region. A recipe lists, in order, the splits of outer loops (each an
/// unroll tile or a split-K segment), then the fused parallel prefix (CPU)
/// or the block/thread bindings (GPU). The leaf order is fixed:
///
///   [DP outers] [k-segments] [reduce] [tiles] [tensorized inner loops]
///
/// Templates compute a recipe from the outer extents alone (cpuRecipe,
/// gpuRecipe). Two functions consume one: applyRecipe issues the recipe's
/// Schedule primitives on a fresh reorganized plan, and foldRecipe
/// computes, by integer arithmetic on the extents, the KernelStats
/// analyzeTensorized reports for that plan, bit for bit: it walks the same
/// leaf order and folds each leaf and each split guard through the same
/// KernelStats::foldLoop / foldSplit analyzeTensorized uses.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_TUNER_LOOPRECIPE_H
#define UNIT_TUNER_LOOPRECIPE_H

#include "perf/CostModel.h"
#include "tuner/TuningSpace.h"

#include <array>
#include <cstdint>
#include <vector>

namespace unit {

/// The outer loops reorganizeLoops leaves, read from the operation and
/// the match without building a schedule. The Rewriter tiles each mapped
/// op axis by its instruction extent, which the Inspector guarantees
/// divides it, so the outer loops are the op axes in allAxes() order, each
/// divided by its mapped instruction extent, with no residue guard.
struct OuterLoops {
  std::vector<int64_t> Dp;     ///< Data-parallel extents, outermost first.
  std::vector<int64_t> Reduce; ///< Reduce extents, outermost first.
};
OuterLoops outerLoops(const ComputeOp &Op, const MatchResult &Match);

/// One schedule template instance. Fixed storage: building, copying and
/// folding a recipe allocate nothing.
class LoopRecipe {
public:
  enum class SplitRole : uint8_t {
    UnrollTile, ///< Dp[Loop] -> (outer, tile); the tile is unrolled.
    SplitK,     ///< Reduce[Loop] -> (segments, rest); at most one.
  };
  struct Split {
    SplitRole Role;
    uint32_t Loop;  ///< Index into OuterLoops::Dp or ::Reduce, by Role.
    int64_t Factor; ///< The inner extent; at most the loop's extent.
  };
  /// More splits than this is a fatal error in every build type. The
  /// shipped templates need at most four: every CPU unroll tile at least
  /// halves a budget of at most 16, and a GPU config splits three loops.
  static constexpr size_t MaxSplits = 8;

  /// Appends a split. Each outer loop is split at most once.
  void addSplit(SplitRole Role, size_t Loop, int64_t Factor);
  /// The first breaking point of Fig. 7: fuses the longest prefix of the
  /// DP outer loops (after their tile splits) whose extent product stays
  /// within \p Limit, at least one loop, into one parallel loop.
  void fuseParallelPrefix(const OuterLoops &Loops, int64_t Limit);
  /// Fig. 6: DP outers 0 and 1 bind to blockIdx.x/y, the split-K
  /// segments to threadIdx.x.
  void bindGpu() { GpuBindings = true; }

  const Split *begin() const { return Splits.data(); }
  const Split *end() const { return Splits.data() + NumSplits; }
  size_t fusedPrefix() const { return FusedPrefix; }
  bool gpuBindings() const { return GpuBindings; }

  /// The unroll tile of Dp[Loop], or null.
  const Split *tileOf(size_t Loop) const;
  /// The split-K split, or null.
  const Split *splitK() const;
  /// Dp[Loop]'s extent after its tile split.
  int64_t outerExtent(const OuterLoops &Loops, size_t Loop) const;

private:
  std::array<Split, MaxSplits> Splits{};
  size_t NumSplits = 0;
  size_t FusedPrefix = 0;
  bool GpuBindings = false;
};

/// Fig. 7 for one tuning pair: tiles the innermost DP outer loops to
/// Pair.UnrollFactor in total (innermost first, exact divisors preferred),
/// then fuses the parallel prefix below Pair.ParallelLimit.
LoopRecipe cpuRecipe(const OuterLoops &Loops, const CpuTuningPair &Pair);

/// Fig. 6 for one config: splits the outermost reduce loop into
/// Config.SplitK segments, tiles DP outers 0 and 1 by Config.P, and binds
/// blocks and threads.
LoopRecipe gpuRecipe(const OuterLoops &Loops, const GpuTuningConfig &Config);

/// The stats analyzeTensorized(applyRecipe(Op, Match, Recipe)) reports,
/// without building the plan. \p Base is analyzeMatch(Op, Match) and
/// \p Loops is outerLoops(Op, Match).
KernelStats foldRecipe(const LoopRecipe &Recipe, const OuterLoops &Loops,
                       KernelStats Base);

/// reorganizeLoops(Op, Match), then the recipe's primitives in order: the
/// splits, one reorder into the leaf order, the left-to-right fuse of the
/// parallel prefix, the bindings, and the unroll annotations.
TensorizePlan applyRecipe(const ComputeOpRef &Op, const MatchResult &Match,
                          const LoopRecipe &Recipe);

} // namespace unit

#endif // UNIT_TUNER_LOOPRECIPE_H
