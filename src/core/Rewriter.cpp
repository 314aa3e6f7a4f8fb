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
  Plan.Match = Match;
  Schedule &S = *Plan.Sched;

  // Tile every mapped operation axis by the instruction axis extent. The
  // Inspector guaranteed divisibility, so no residue guards appear here.
  for (const auto &[OpAxis, InstrAxis] : Match.Mapping.Pairs) {
    Plan.InnerVarOf[InstrAxis.get()] =
        S.split(OpAxis, InstrAxis->extent()).second;
  }

  // Inner loops in instruction order (data-parallel axes then reduce axes,
  // i.e. the semantics ComputeOp's own order).
  for (const IterVar &InstrAxis : Match.Intrinsic->semantics()->allAxes()) {
    auto It = Plan.InnerVarOf.find(InstrAxis.get());
    assert(It != Plan.InnerVarOf.end() && "unmapped instruction axis");
    Plan.InnerLoops.push_back(It->second);
  }

  // Outer loops: every current leaf that is not a tensorized inner loop,
  // preserving relative order, partitioned data-parallel before reduce so
  // the reduction nest wraps the tensorized instruction (Fig. 7a).
  std::vector<IterVar> Others;
  for (const IterVar &Leaf : S.leaves()) {
    if (std::find(Plan.InnerLoops.begin(), Plan.InnerLoops.end(), Leaf) !=
        Plan.InnerLoops.end())
      continue;
    Others.push_back(Leaf);
  }
  for (const IterVar &IV : Others) {
    if (IV->isReduce())
      Plan.OuterReduce.push_back(IV);
    else
      Plan.OuterDataParallel.push_back(IV);
  }

  // Final leaf order.
  std::vector<IterVar> Order = Plan.OuterDataParallel;
  Order.insert(Order.end(), Plan.OuterReduce.begin(), Plan.OuterReduce.end());
  Order.insert(Order.end(), Plan.InnerLoops.begin(), Plan.InnerLoops.end());
  S.reorder(Order);

  // Mark the region for the Replacer.
  S.pragma(Plan.InnerLoops.front(), "tensorize", Match.Intrinsic->name());
  return Plan;
}
