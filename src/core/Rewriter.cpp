//===- core/Rewriter.cpp ---------------------------------------------------===//

#include "core/Rewriter.h"

#include "support/ErrorHandling.h"

#include <algorithm>
#include <cassert>

using namespace unit;

TensorizePlan unit::reorganizeLoops(const ComputeOpRef &Op,
                                    const MatchResult &Match) {
  TensorizePlan Plan;
  Plan.Sched = std::make_shared<Schedule>(Op);
  Plan.Match.Intrinsic = Match.Intrinsic;
  Plan.Match.Iso = Match.Iso;
  Plan.Match.Mapping = Match.Mapping;
  Schedule &S = *Plan.Sched;

  // Tile every mapped operation axis by the instruction axis extent. The
  // Inspector guaranteed divisibility, so no residue guards appear here.
  Plan.InnerVarOf.reserve(Match.Mapping.Pairs.size());
  for (const auto &[OpAxis, InstrAxis] : Match.Mapping.Pairs)
    Plan.InnerVarOf.emplace(InstrAxis.get(),
                            S.split(OpAxis, InstrAxis->extent()).second);

  // Inner loops in instruction order (data-parallel axes then reduce axes,
  // i.e. the semantics ComputeOp's own order).
  const std::vector<IterVar> &InstrAxes =
      Match.Intrinsic->semantics()->allAxes();
  Plan.InnerLoops.reserve(InstrAxes.size());
  for (const IterVar &InstrAxis : InstrAxes) {
    auto It = Plan.InnerVarOf.find(InstrAxis.get());
    assert(It != Plan.InnerVarOf.end() && "unmapped instruction axis");
    Plan.InnerLoops.push_back(It->second);
  }

  // Outer loops: every current leaf that is not a tensorized inner loop,
  // preserving relative order, partitioned data-parallel before reduce so
  // the reduction nest wraps the tensorized instruction (Fig. 7a).
  // Each op axis leaves exactly one outer loop.
  const std::vector<IterVar> &Leaves = S.leaves();
  Plan.OuterDataParallel.reserve(Op->axes().size());
  Plan.OuterReduce.reserve(Op->reduceAxes().size());
  for (const IterVar &Leaf : Leaves) {
    if (std::find(Plan.InnerLoops.begin(), Plan.InnerLoops.end(), Leaf) !=
        Plan.InnerLoops.end())
      continue;
    (Leaf->isReduce() ? Plan.OuterReduce : Plan.OuterDataParallel)
        .push_back(Leaf);
  }

  // Final leaf order.
  std::vector<IterVar> Order;
  Order.reserve(Leaves.size());
  Order.insert(Order.end(), Plan.OuterDataParallel.begin(),
               Plan.OuterDataParallel.end());
  Order.insert(Order.end(), Plan.OuterReduce.begin(), Plan.OuterReduce.end());
  Order.insert(Order.end(), Plan.InnerLoops.begin(), Plan.InnerLoops.end());
  S.reorder(Order);

  // Mark the region for the Replacer.
  S.pragma(Plan.InnerLoops.front(), "tensorize", Match.Intrinsic->name());
  return Plan;
}
