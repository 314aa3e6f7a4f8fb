//===- schedule/Schedule.cpp ----------------------------------------------===//

#include "schedule/Schedule.h"

#include "support/ErrorHandling.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>

using namespace unit;

const char *unit::forKindName(ForKind K) {
  switch (K) {
  case ForKind::Serial:
    return "serial";
  case ForKind::Parallel:
    return "parallel";
  case ForKind::Unrolled:
    return "unroll";
  case ForKind::Vectorized:
    return "vectorize";
  case ForKind::GpuBlockX:
    return "blockIdx.x";
  case ForKind::GpuBlockY:
    return "blockIdx.y";
  case ForKind::GpuThreadX:
    return "threadIdx.x";
  case ForKind::GpuThreadY:
    return "threadIdx.y";
  }
  unit_unreachable("unknown ForKind");
}

Schedule::Schedule(ComputeOpRef OpIn) : Op(std::move(OpIn)) {
  assert(Op && "null ComputeOp");
  // Room for about one split per root axis, the usual tiling.
  const std::vector<IterVar> &Axes = Op->allAxes();
  Leaves.reserve(2 * Axes.size());
  Leaves.assign(Axes.begin(), Axes.end());
  Splits.reserve(Axes.size());
}

bool Schedule::isLeaf(const IterVar &IV) const {
  return std::find(Leaves.begin(), Leaves.end(), IV) != Leaves.end();
}

std::pair<IterVar, IterVar> Schedule::split(const IterVar &IV,
                                            int64_t Factor) {
  auto It = std::find(Leaves.begin(), Leaves.end(), IV);
  if (It == Leaves.end())
    reportFatalError("split: '" + IV->name() + "' is not a leaf loop");
  if (Factor <= 0)
    reportFatalError(formatStr("split: factor %lld must be positive",
                               static_cast<long long>(Factor)));
  if (Factor > IV->extent())
    Factor = IV->extent(); // Clamp: a factor beyond the extent is one tile.

  int64_t OuterExtent = (IV->extent() + Factor - 1) / Factor;
  bool NeedsGuard = IV->extent() % Factor != 0;
  auto Outer = std::make_shared<IterVarNode>(IV->name() + ".o", OuterExtent,
                                             IV->kind());
  auto Inner =
      std::make_shared<IterVarNode>(IV->name() + ".i", Factor, IV->kind());

  // Replace IV in the leaf list with (outer, inner).
  *It = Outer;
  Leaves.insert(It + 1, Inner);
  Splits.push_back({IV, Outer, Inner, Factor, NeedsGuard});
  return {Outer, Inner};
}

IterVar Schedule::fuse(const IterVar &Outer, const IterVar &Inner) {
  auto OuterIt = std::find(Leaves.begin(), Leaves.end(), Outer);
  if (OuterIt == Leaves.end() || OuterIt + 1 == Leaves.end() ||
      *(OuterIt + 1) != Inner)
    reportFatalError("fuse: '" + Outer->name() + "' and '" + Inner->name() +
                     "' must be adjacent leaf loops");
  if (Outer->kind() != Inner->kind())
    reportFatalError("fuse: cannot fuse a data-parallel loop with a "
                     "reduce loop");

  auto Fused = std::make_shared<IterVarNode>(
      Outer->name() + "." + Inner->name() + ".fused",
      Outer->extent() * Inner->extent(), Outer->kind());
  *OuterIt = Fused;
  Leaves.erase(OuterIt + 1);
  Fuses.push_back({Outer, Inner, Fused, Splits.size()});
  return Fused;
}

void Schedule::reorder(const std::vector<IterVar> &Order) {
  // Gather current positions of the listed leaves; the leaves then occupy
  // those same positions in the requested order (TVM semantics).
  std::vector<size_t> Positions;
  Positions.reserve(Order.size());
  for (const IterVar &IV : Order) {
    auto It = std::find(Leaves.begin(), Leaves.end(), IV);
    if (It == Leaves.end())
      reportFatalError("reorder: '" + IV->name() + "' is not a leaf loop");
    Positions.push_back(static_cast<size_t>(It - Leaves.begin()));
  }
  std::sort(Positions.begin(), Positions.end());
  if (std::adjacent_find(Positions.begin(), Positions.end()) !=
      Positions.end())
    reportFatalError("reorder: duplicate loop in order list");
  for (size_t I = 0; I < Order.size(); ++I)
    Leaves[Positions[I]] = Order[I];
}

void Schedule::annotate(const IterVar &IV, ForKind K) {
  if (!isLeaf(IV))
    reportFatalError("annotate: '" + IV->name() + "' is not a leaf loop");
  if (K == ForKind::Parallel && IV->isReduce())
    reportFatalError("annotate: reduce loop '" + IV->name() +
                     "' cannot be CPU-parallel");
  Annotations[IV.get()] = K;
}

void Schedule::bind(const IterVar &IV, ForKind GpuKind) {
  if (GpuKind != ForKind::GpuBlockX && GpuKind != ForKind::GpuBlockY &&
      GpuKind != ForKind::GpuThreadX && GpuKind != ForKind::GpuThreadY)
    reportFatalError("bind: expected a GPU thread/block kind");
  if (!isLeaf(IV))
    reportFatalError("bind: '" + IV->name() + "' is not a leaf loop");
  Annotations[IV.get()] = GpuKind;
}

void Schedule::pragma(const IterVar &IV, std::string Key, std::string Value) {
  if (!isLeaf(IV))
    reportFatalError("pragma: '" + IV->name() + "' is not a leaf loop");
  Pragmas[IV.get()].emplace_back(std::move(Key), std::move(Value));
}

ForKind Schedule::annotation(const IterVar &IV) const {
  auto It = Annotations.find(IV.get());
  return It == Annotations.end() ? ForKind::Serial : It->second;
}

const std::vector<std::pair<std::string, std::string>> &
Schedule::pragmas(const IterVar &IV) const {
  static const std::vector<std::pair<std::string, std::string>> None;
  auto It = Pragmas.find(IV.get());
  return It == Pragmas.end() ? None : It->second;
}

Schedule::Resolution Schedule::resolve(const VarSubst &LeafValues) const {
  // Every IterVar is made by one relation and consumed by at most one
  // later one, so walking the relations newest first meets each
  // relation's products already resolved. Each leaf, each split's parent
  // and each fuse's two inputs get one entry.
  VarSubst Values;
  Values.reserve(LeafValues.size() + Leaves.size() + Splits.size() +
                 2 * Fuses.size());
  for (const auto &[IV, Value] : LeafValues)
    Values.emplace(IV, Value);
  for (const IterVar &Leaf : Leaves)
    if (!Values.count(Leaf.get()))
      Values.emplace(Leaf.get(), makeVar(Leaf));
  Resolution Out;
  size_t S = Splits.size(), F = Fuses.size();
  while (S > 0 || F > 0) {
    if (F > 0 && Fuses[F - 1].SplitsBefore >= S) {
      const FuseRel &R = Fuses[--F];
      // A copy: the inserts below may move the table's entries.
      ExprRef Fused = Values.at(R.Fused.get());
      ExprRef InnerExtent = makeIntImm(R.Inner->extent());
      Values[R.Outer.get()] = Fused / InnerExtent;
      Values[R.Inner.get()] = std::move(Fused) % std::move(InnerExtent);
      continue;
    }
    const SplitRel &R = Splits[--S];
    ExprRef Parent = Values.at(R.Outer.get()) * makeIntImm(R.Factor) +
                     Values.at(R.Inner.get());
    // `parent < extent`, encoded as a Pure builtin call; lowering wraps it
    // in `likely(...)` to mirror TVM's residue guards.
    if (R.NeedsGuard)
      Out.Guards.push_back(makeCall("lt", CallKind::Pure,
                                    {Parent, makeIntImm(R.Parent->extent())},
                                    DataType::i32()));
    Values[R.Parent.get()] = std::move(Parent);
  }
  std::reverse(Out.Guards.begin(), Out.Guards.end());
  const std::vector<IterVar> &Roots = Op->allAxes();
  Out.Roots.reserve(Roots.size());
  // Each root is read once, so its value moves out of the table.
  for (const IterVar &IV : Roots)
    Out.Roots.emplace(IV.get(), std::move(Values.at(IV.get())));
  return Out;
}
