//===- core/Rewriter.h - Loop reorganization (paper §III.C.1) -------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Given an Inspector match, tiles each mapped operation loop by the
/// corresponding instruction loop's trip count, sinks the tile-inner loops
/// to the innermost positions in instruction order, and annotates the
/// region with the `tensorize` pragma (paper Fig. 5c). The remaining outer
/// loops stay available for the Tuner.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_CORE_REWRITER_H
#define UNIT_CORE_REWRITER_H

#include "core/Inspector.h"
#include "schedule/Schedule.h"

#include <memory>

namespace unit {

/// A reorganized schedule poised for instruction replacement.
struct TensorizePlan {
  std::shared_ptr<Schedule> Sched; ///< Shared so the Tuner can keep refining.
  /// The match the plan realizes, without its Alternatives: a plan is
  /// built for one mapping and lowering reads only that one.
  MatchResult Match;

  /// Tile-inner loop per instruction axis (these form the pragma region).
  FlatMap<const IterVarNode *, IterVar> InnerVarOf;

  /// Outer loops in leaf order, split by annotation kind.
  std::vector<IterVar> OuterDataParallel;
  std::vector<IterVar> OuterReduce;
  /// The tensorized inner loops, instruction axis order (outermost first).
  std::vector<IterVar> InnerLoops;
};

/// Performs the loop reorganization for \p Match on a fresh schedule of
/// \p Op. The resulting plan's schedule has leaf order
/// [outer data-parallel..., outer reduce..., inner (instruction order)...]
/// with the `tensorize` pragma on the outermost inner loop.
TensorizePlan reorganizeLoops(const ComputeOpRef &Op,
                              const MatchResult &Match);

} // namespace unit

#endif // UNIT_CORE_REWRITER_H
