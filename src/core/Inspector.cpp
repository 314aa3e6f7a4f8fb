//===- core/Inspector.cpp --------------------------------------------------===//

#include "core/Inspector.h"

#include "ir/ExprUtil.h"
#include "ir/LinearIndex.h"
#include "support/ErrorHandling.h"

#include <algorithm>
#include <iterator>
#include <set>

using namespace unit;

IterVar AxisMapping::opAxisFor(const IterVarNode *InstrAxis) const {
  for (const auto &[OpAxis, IAxis] : Pairs)
    if (IAxis.get() == InstrAxis)
      return OpAxis;
  return nullptr;
}

IterVar AxisMapping::instrAxisFor(const IterVarNode *OpAxis) const {
  for (const auto &[OAxis, InstrAxis] : Pairs)
    if (OAxis.get() == OpAxis)
      return InstrAxis;
  return nullptr;
}

namespace {

/// True if \p IV appears in one of \p Load's index expressions.
bool loadMentions(const LoadNode *Load, const IterVarNode *IV) {
  for (const ExprRef &Idx : Load->Indices)
    for (const IterVar &V : collectVars(Idx))
      if (V.get() == IV)
        return true;
  return false;
}

/// The feasibility test of paper §III.B.2 for one pair f(OpAxis) =
/// InstrAxis: for every bound operand pair (u = op access, v =
/// instruction access), OpAxis in S(u) implies InstrAxis in S(v).
/// S'(u) ⊆ S(v), where S'(u) = { f(x) | x in S(u) ∩ A }, holds for a
/// mapping exactly when it holds for each of its pairs.
bool pairFeasible(const IterVar &OpAxis, const IterVar &InstrAxis,
                  const IsoResult &Iso) {
  for (const OperandBinding &B : Iso.Bindings) {
    if (B.IsAccumulator)
      continue; // The accumulator aliases the output; checked by shape.
    if (loadMentions(B.OpLoad, OpAxis.get()) &&
        !loadMentions(B.InstrLoad, InstrAxis.get()))
      return false; // One register lane would need several addresses.
  }
  return true;
}

/// Recursively assigns operation axes to instruction axes.
///
/// \p InstrAxes lists the instruction axes still to assign; \p Candidates
/// lists, per instruction axis, the op axes that qualify (same annotation,
/// perfect tiling, a feasible pair), pre-sorted innermost-first. Every
/// complete mapping of distinct op axes is feasible and appended to
/// \p Out (bounded enumeration; shapes make this tiny).
void enumerate(const std::vector<IterVar> &InstrAxes, size_t Depth,
               const std::vector<std::vector<IterVar>> &Candidates,
               std::vector<std::pair<IterVar, IterVar>> &Current,
               std::vector<AxisMapping> &Out) {
  if (Depth == InstrAxes.size()) {
    Out.push_back(AxisMapping{Current});
    return;
  }
  const IterVar &InstrAxis = InstrAxes[Depth];
  for (const IterVar &OpAxis : Candidates[Depth]) {
    bool Used = false;
    for (const auto &[Assigned, _] : Current)
      Used |= Assigned == OpAxis;
    if (Used)
      continue;
    Current.emplace_back(OpAxis, InstrAxis);
    enumerate(InstrAxes, Depth + 1, Candidates, Current, Out);
    Current.pop_back();
  }
}

} // namespace

std::optional<MatchResult> unit::inspect(const ComputeOpRef &Op,
                                         const TensorIntrinsicRef &Intr,
                                         std::string *WhyNot) {
  auto Fail = [&](const std::string &Why) -> std::optional<MatchResult> {
    if (WhyNot)
      *WhyNot = Why;
    return std::nullopt;
  };

  // Step 1: compute isomorphism (paper Algorithm 1).
  IsoResult Iso = matchCompute(*Intr->semantics(), *Op);
  if (!Iso.Matched)
    return Fail("compute isomorphism failed: " + Iso.FailureReason);

  // In-place instructions additionally require the op's output element
  // type to match the accumulator register's element type.
  if (Intr->accumulatesInPlace() &&
      Intr->semantics()->output()->dtype() != Op->output()->dtype())
    return Fail("accumulator element type mismatch");

  // Step 2: array access isomorphism — enumerate loop mappings.
  const std::vector<IterVar> &InstrAxes = Intr->semantics()->allAxes();

  // Candidates per instruction axis: op axes of the same annotation whose
  // extent the instruction extent tiles perfectly (the graph level pads
  // shapes to guarantee this; see graph/Layout). Innermost-first for the
  // greedy locality preference of paper §IV.A.
  std::vector<IterVar> OpAxesInnermostFirst = Op->allAxes();
  std::reverse(OpAxesInnermostFirst.begin(), OpAxesInnermostFirst.end());

  std::vector<std::vector<IterVar>> Candidates;
  for (const IterVar &InstrAxis : InstrAxes) {
    std::vector<IterVar> C;
    for (const IterVar &OpAxis : OpAxesInnermostFirst) {
      if (OpAxis->kind() != InstrAxis->kind())
        continue;
      if (OpAxis->extent() % InstrAxis->extent() != 0)
        continue;
      C.push_back(OpAxis);
    }
    if (C.empty())
      return Fail("no operation axis can host instruction axis '" +
                  InstrAxis->name() + "'");
    Candidates.push_back(std::move(C));
  }

  // The pair test of every candidate, once: a mapping is feasible exactly
  // when all of its pairs are.
  for (size_t I = 0; I < InstrAxes.size(); ++I) {
    std::vector<IterVar> &C = Candidates[I];
    C.erase(std::remove_if(C.begin(), C.end(),
                           [&](const IterVar &OpAxis) {
                             return !pairFeasible(OpAxis, InstrAxes[I], Iso);
                           }),
            C.end());
  }

  std::vector<AxisMapping> Feasible;
  std::vector<std::pair<IterVar, IterVar>> Current;
  enumerate(InstrAxes, 0, Candidates, Current, Feasible);
  if (Feasible.empty())
    return Fail("no feasible loop mapping (S'(u) ⊆ S(v) fails everywhere)");

  MatchResult Result;
  Result.Intrinsic = Intr;
  Result.Iso = std::move(Iso);
  Result.Mapping = std::move(Feasible.front());
  Result.Alternatives.assign(std::make_move_iterator(Feasible.begin() + 1),
                             std::make_move_iterator(Feasible.end()));
  // The strides of each input register under the chosen mapping, once per
  // match: the cost model counts loads from them and operand generation
  // builds the operands from them.
  for (OperandBinding &B : Result.Iso.Bindings)
    if (!B.IsAccumulator)
      B.LaneStrides = opLaneStrides(
          Result.Mapping, Intr->laneLayout(B.InstrLoad), B.OpLoad);
  return Result;
}

std::vector<int64_t> unit::opLaneStrides(const AxisMapping &Mapping,
                                         const RegisterLayout &Layout,
                                         const LoadNode *OpLoad) {
  std::set<const IterVarNode *> MappedOpAxes;
  for (const auto &[OpAxis, InstrAxis] : Mapping.Pairs)
    MappedOpAxes.insert(OpAxis.get());
  LinearIndex OLI = analyzeLinearCoeffs(OpLoad, MappedOpAxes);
  if (!OLI.Valid)
    reportFatalError("operand generation: operation access is not affine in "
                     "the tensorized loops");
  std::vector<int64_t> Strides;
  Strides.reserve(Layout.Axes.size());
  for (const LaneAxis &Axis : Layout.Axes)
    Strides.push_back(
        OLI.coeffOf(Mapping.opAxisFor(Axis.InstrAxis.get()).get()));
  return Strides;
}

std::vector<MatchResult> unit::inspectTarget(const ComputeOpRef &Op,
                                             const std::string &Target) {
  std::vector<MatchResult> Out;
  for (const TensorIntrinsicRef &Intr :
       IntrinsicRegistry::instance().forTarget(Target)) {
    if (std::optional<MatchResult> M = inspect(Op, Intr))
      Out.push_back(std::move(*M));
  }
  return Out;
}
