//===- core/OperandGen.cpp -------------------------------------------------===//

#include "core/OperandGen.h"

#include "ir/ExprUtil.h"
#include "support/ErrorHandling.h"
#include "tir/Lower.h"

#include <algorithm>

using namespace unit;

namespace {

/// True when the access is *contiguous in lane order*: every lane axis is
/// depended on and its buffer stride is proportional to its lane stride,
/// so the whole register fills with one strided vector access. This is
/// what the paper's blocked data layouts (NCHW[x]c / KCRS[y]k[x]c, §V.C)
/// buy: the register block is one load, not an unrolled gather.
bool isContiguous(const RegisterLayout &Layout,
                  const std::vector<int64_t> &OpStrides) {
  const std::vector<LaneAxis> &Axes = Layout.Axes;
  if (OpStrides.size() != Axes.size())
    reportFatalError("operand generation: no operation stride recorded for "
                     "each lane axis (was the match built by inspect?)");
  if (Axes.empty() || OpStrides.back() == 0)
    return false;
  for (size_t D = 0; D < Axes.size(); ++D)
    if (OpStrides[D] != OpStrides.back() * Axes[D].LaneCoeff)
      return false;
  return true;
}

/// The role of lane axis \p D of a non-contiguous access: broadcast where
/// the access is invariant, vectorize the last axis, unroll the interior
/// ones.
OperandAxisRole axisRole(const std::vector<int64_t> &OpStrides, size_t D) {
  return OpStrides[D] == 0          ? OperandAxisRole::Broadcast
         : D + 1 == OpStrides.size() ? OperandAxisRole::Vectorize
                                     : OperandAxisRole::Unroll;
}

/// Recursively builds the flat index vector for one non-contiguous
/// register, walking the lane axes of \p Layout from slowest- to
/// fastest-varying with their axisRole. Returns an i32 vector expression
/// whose lane count is the product of the axis extents.
ExprRef buildIndexVector(const RegisterLayout &Layout,
                         const std::vector<int64_t> &OpStrides, size_t Depth,
                         ExprRef Base) {
  if (Depth == Layout.Axes.size())
    return Base;
  auto Extent =
      static_cast<unsigned>(Layout.Axes[Depth].InstrAxis->extent());
  switch (axisRole(OpStrides, Depth)) {
  case OperandAxisRole::Broadcast: {
    // Tile-repeat broadcast: the same inner pattern fills every step of
    // this (slower-varying) axis.
    ExprRef Inner =
        buildIndexVector(Layout, OpStrides, Depth + 1, std::move(Base));
    if (Extent == 1)
      return Inner;
    return makeBroadcast(std::move(Inner), Extent);
  }
  case OperandAxisRole::Vectorize:
    // Fastest-varying depended axis: a strided vector access.
    if (Extent == 1)
      return Base;
    return makeRamp(std::move(Base), OpStrides[Depth], Extent);
  case OperandAxisRole::Unroll: {
    // Interior depended axis: unroll and concatenate.
    std::vector<ExprRef> Parts;
    Parts.reserve(Extent);
    for (unsigned T = 0; T < Extent; ++T) {
      ExprRef Stepped =
          Base + makeIntImm(static_cast<int64_t>(T) * OpStrides[Depth]);
      Parts.push_back(buildIndexVector(Layout, OpStrides, Depth + 1,
                                       std::move(Stepped)));
    }
    return makeConcat(std::move(Parts));
  }
  }
  unit_unreachable("unknown operand axis role");
}

/// The flat index vector of one register: one strided access when the
/// access is contiguous, else the per-axis walk.
ExprRef buildIndex(const RegisterLayout &Layout,
                   const std::vector<int64_t> &OpStrides, ExprRef Base) {
  if (!isContiguous(Layout, OpStrides))
    return buildIndexVector(Layout, OpStrides, 0, std::move(Base));
  if (Layout.Lanes == 1)
    return Base;
  return makeRamp(std::move(Base), OpStrides.back(),
                  static_cast<unsigned>(Layout.Lanes));
}

} // namespace

OperandRoles unit::operandRoles(const RegisterLayout &Layout,
                                const std::vector<int64_t> &OpStrides) {
  const std::vector<LaneAxis> &Axes = Layout.Axes;
  size_t N = Axes.size();
  OperandRoles Out;
  if (isContiguous(Layout, OpStrides)) {
    Out.PerAxis.assign(N, OperandAxisRole::Vectorize);
    for (const LaneAxis &Axis : Axes)
      Out.Recorded.emplace_back(Axis.InstrAxis, OperandAxisRole::Vectorize);
    return Out;
  }

  Out.PerAxis.reserve(N);
  for (size_t D = 0; D < N; ++D)
    Out.PerAxis.push_back(axisRole(OpStrides, D));

  // The recorded roles stop at the first axis that is not broadcast: the
  // unrolled parts below it are generated without recording.
  size_t First = 0;
  while (First < N && Out.PerAxis[First] == OperandAxisRole::Broadcast)
    ++First;
  if (First < N) {
    Out.Recorded.emplace_back(Axes[First].InstrAxis, Out.PerAxis[First]);
    if (Out.PerAxis[First] == OperandAxisRole::Unroll)
      Out.Loads = Axes[First].InstrAxis->extent();
  }
  for (size_t D = First; D-- > 0;)
    Out.Recorded.emplace_back(Axes[D].InstrAxis, OperandAxisRole::Broadcast);
  return Out;
}

ExprRef unit::generateOutputIndex(const TensorizePlan &Plan,
                                  const VarSubst &Origin) {
  const ComputeOp &Op = *Plan.Sched->op();
  const RegisterLayout &Layout = Plan.Match.Intrinsic->outputLayout();

  // The output access is the identity over Op.axes(), so a lane's stride
  // is the output tensor's stride along the mapped axis.
  const std::vector<IterVar> &Axes = Op.axes();
  const std::vector<int64_t> &Strides = Op.output()->strides();
  std::vector<int64_t> OpStrides;
  OpStrides.reserve(Layout.Axes.size());
  for (const LaneAxis &Axis : Layout.Axes) {
    auto It = std::find(Axes.begin(), Axes.end(),
                        Plan.Match.Mapping.opAxisFor(Axis.InstrAxis.get()));
    if (It == Axes.end())
      reportFatalError("operand generation: operation output does not vary "
                       "along instruction axis '" +
                       Axis.InstrAxis->name() + "'");
    OpStrides.push_back(Strides[It - Axes.begin()]);
  }
  return buildIndex(Layout, OpStrides,
                    flattenIndexBy(Op.output(), [&](size_t I) {
                      return Origin.at(Axes[I].get());
                    }));
}

ExprRef unit::generateOperandExpr(const TensorizePlan &Plan,
                                  const OperandBinding &Binding,
                                  const VarSubst &Origin,
                                  const ExprRef &AccumIndex) {
  // The accumulator register is fed the operation's own output region.
  if (Binding.IsAccumulator)
    return makeVectorLoad(Plan.Sched->op()->output(), AccumIndex);

  const LoadNode *OpLoad = Binding.OpLoad;
  const RegisterLayout &Layout =
      Plan.Match.Intrinsic->laneLayout(Binding.InstrLoad);
  ExprRef Base = flattenIndexBy(OpLoad->Buf, [&](size_t I) {
    return substitute(OpLoad->Indices[I], Origin);
  });
  ExprRef Operand = makeVectorLoad(
      OpLoad->Buf, buildIndex(Layout, Binding.LaneStrides, std::move(Base)));
  if (static_cast<int64_t>(Operand->dtype().lanes()) !=
      Binding.InstrTensor->numElements())
    reportFatalError("operand generation: lane count does not fill "
                     "register '" +
                     Binding.InstrTensor->name() + "'");
  return Operand;
}

OperandInfo unit::generateOperand(const TensorizePlan &Plan,
                                  const OperandBinding &Binding,
                                  const VarSubst &Origin,
                                  const ExprRef &AccumIndex) {
  OperandInfo Info;
  Info.InstrTensor = Binding.InstrTensor;
  Info.Operand = generateOperandExpr(Plan, Binding, Origin, AccumIndex);
  if (Binding.IsAccumulator) {
    for (const IterVar &InstrAxis :
         Plan.Match.Intrinsic->semantics()->axes())
      Info.Roles.emplace_back(InstrAxis, OperandAxisRole::Vectorize);
    return Info;
  }
  Info.Roles = operandRoles(Plan.Match.Intrinsic->laneLayout(Binding.InstrLoad),
                            Binding.LaneStrides)
                   .Recorded;
  return Info;
}
