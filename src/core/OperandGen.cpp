//===- core/OperandGen.cpp -------------------------------------------------===//

#include "core/OperandGen.h"

#include "ir/ExprUtil.h"
#include "ir/LinearIndex.h"
#include "support/ErrorHandling.h"
#include "tir/Lower.h"

#include <algorithm>
#include <cassert>

using namespace unit;

namespace {

/// Recursively builds the flat index vector for one register, walking the
/// lane axes of \p Layout from slowest- to fastest-varying as \p Roles
/// assigns them (not the contiguous form). Returns an i32 vector
/// expression whose lane count is the product of the axis extents.
ExprRef buildIndexVector(const RegisterLayout &Layout,
                         const std::vector<int64_t> &OpStrides,
                         const OperandRoles &Roles, size_t Depth,
                         ExprRef Base) {
  if (Depth == Layout.Axes.size())
    return Base;
  auto Extent =
      static_cast<unsigned>(Layout.Axes[Depth].InstrAxis->extent());
  switch (Roles.PerAxis[Depth]) {
  case OperandAxisRole::Broadcast: {
    // Tile-repeat broadcast: the same inner pattern fills every step of
    // this (slower-varying) axis.
    ExprRef Inner =
        buildIndexVector(Layout, OpStrides, Roles, Depth + 1, Base);
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
      Parts.push_back(buildIndexVector(Layout, OpStrides, Roles, Depth + 1,
                                       std::move(Stepped)));
    }
    return makeConcat(std::move(Parts));
  }
  }
  unit_unreachable("unknown operand axis role");
}

/// The flat index vector of one register: one strided access when every
/// axis vectorizes (the contiguous form), else the per-axis walk.
ExprRef buildIndex(const RegisterLayout &Layout,
                   const std::vector<int64_t> &OpStrides,
                   const OperandRoles &Roles, const ExprRef &Base) {
  bool Contiguous =
      !Layout.Axes.empty() &&
      std::all_of(Roles.PerAxis.begin(), Roles.PerAxis.end(),
                  [](OperandAxisRole R) {
                    return R == OperandAxisRole::Vectorize;
                  });
  if (!Contiguous)
    return buildIndexVector(Layout, OpStrides, Roles, 0, Base);
  if (Layout.Lanes == 1)
    return Base;
  return makeRamp(Base, OpStrides.back(),
                  static_cast<unsigned>(Layout.Lanes));
}

} // namespace

OperandRoles unit::operandRoles(const RegisterLayout &Layout,
                                const std::vector<int64_t> &OpStrides) {
  assert(OpStrides.size() == Layout.Axes.size() && "one stride per axis");
  const std::vector<LaneAxis> &Axes = Layout.Axes;
  size_t N = Axes.size();
  OperandRoles Out;

  // When the operation access is *contiguous in lane order* — every lane
  // axis is depended on and its buffer stride is proportional to its lane
  // stride — the whole register fills with one strided vector access.
  // This is what the paper's blocked data layouts (NCHW[x]c /
  // KCRS[y]k[x]c, §V.C) buy: the register block is one load, not an
  // unrolled gather.
  bool Contiguous = N > 0 && OpStrides.back() != 0;
  for (size_t D = 0; D < N && Contiguous; ++D)
    Contiguous = OpStrides[D] == OpStrides.back() * Axes[D].LaneCoeff;
  if (Contiguous) {
    Out.PerAxis.assign(N, OperandAxisRole::Vectorize);
    for (const LaneAxis &Axis : Axes)
      Out.Recorded.emplace_back(Axis.InstrAxis, OperandAxisRole::Vectorize);
    return Out;
  }

  // Otherwise axis by axis: broadcast where the access is invariant,
  // vectorize the last axis, unroll the interior ones.
  Out.PerAxis.reserve(N);
  for (size_t D = 0; D < N; ++D)
    Out.PerAxis.push_back(OpStrides[D] == 0 ? OperandAxisRole::Broadcast
                          : D + 1 == N      ? OperandAxisRole::Vectorize
                                            : OperandAxisRole::Unroll);

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

ExprRef unit::generateOutputIndex(const TensorizePlan &Plan,
                                  const VarSubst &Origin) {
  const ComputeOp &Op = *Plan.Sched->op();
  const RegisterLayout &Layout = Plan.Match.Intrinsic->outputLayout();

  // The output access is the identity over Op.axes(), so a lane's stride
  // is the output tensor's stride along the mapped axis.
  const std::vector<IterVar> &Axes = Op.axes();
  std::vector<int64_t> Strides = Op.output()->strides(), OpStrides;
  for (const LaneAxis &Axis : Layout.Axes) {
    auto It = std::find(Axes.begin(), Axes.end(),
                        Plan.Match.Mapping.opAxisFor(Axis.InstrAxis.get()));
    if (It == Axes.end())
      reportFatalError("operand generation: operation output does not vary "
                       "along instruction axis '" +
                       Axis.InstrAxis->name() + "'");
    OpStrides.push_back(Strides[It - Axes.begin()]);
  }
  std::vector<ExprRef> AtOrigin;
  for (const IterVar &Axis : Axes)
    AtOrigin.push_back(Origin.at(Axis.get()));
  return buildIndex(Layout, OpStrides, operandRoles(Layout, OpStrides),
                    flattenIndex(Op.output(), AtOrigin));
}

OperandInfo unit::generateOperand(const TensorizePlan &Plan,
                                  const OperandBinding &Binding,
                                  const VarSubst &Origin,
                                  const ExprRef &AccumIndex) {
  OperandInfo Info;
  Info.InstrTensor = Binding.InstrTensor;

  if (Binding.IsAccumulator) {
    // The accumulator register is fed the operation's own output region.
    Info.Operand =
        makeVectorLoad(Plan.Sched->op()->output(), AccumIndex);
    for (const IterVar &InstrAxis :
         Plan.Match.Intrinsic->semantics()->axes())
      Info.Roles.emplace_back(InstrAxis, OperandAxisRole::Vectorize);
    return Info;
  }

  const LoadNode *OpLoad = Binding.OpLoad;
  const RegisterLayout &Layout =
      Plan.Match.Intrinsic->laneLayout(Binding.InstrLoad);
  std::vector<int64_t> OpStrides =
      opLaneStrides(Plan.Match.Mapping, Layout, OpLoad);
  OperandRoles Roles = operandRoles(Layout, OpStrides);

  std::vector<ExprRef> AtOrigin;
  AtOrigin.reserve(OpLoad->Indices.size());
  for (const ExprRef &I : OpLoad->Indices)
    AtOrigin.push_back(substitute(I, Origin));
  ExprRef Base = flattenIndex(OpLoad->Buf, AtOrigin);
  Info.Operand = makeVectorLoad(OpLoad->Buf,
                                buildIndex(Layout, OpStrides, Roles, Base));
  Info.Roles = std::move(Roles.Recorded);
  if (static_cast<int64_t>(Info.Operand->dtype().lanes()) !=
      Binding.InstrTensor->numElements())
    reportFatalError("operand generation: lane count does not fill "
                     "register '" +
                     Binding.InstrTensor->name() + "'");
  return Info;
}
