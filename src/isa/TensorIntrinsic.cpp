//===- isa/TensorIntrinsic.cpp ---------------------------------------------===//

#include "isa/TensorIntrinsic.h"

#include "ir/ExprUtil.h"
#include "ir/LinearIndex.h"
#include "isa/Intrinsics.h"
#include "support/ErrorHandling.h"

#include <algorithm>
#include <cassert>

using namespace unit;

namespace {

/// Orders \p Layout's axes slowest-varying first and totals its lanes.
void finishLayout(RegisterLayout &Layout) {
  std::stable_sort(Layout.Axes.begin(), Layout.Axes.end(),
                   [](const LaneAxis &A, const LaneAxis &B) {
                     return A.LaneCoeff > B.LaneCoeff;
                   });
  for (const LaneAxis &Axis : Layout.Axes)
    Layout.Lanes *= Axis.InstrAxis->extent();
}

/// The lane layout of register access \p Load in \p Sem: the coefficient
/// of every instruction axis in the load's flat index.
RegisterLayout loadLayout(const ComputeOp &Sem, const LoadNode *Load) {
  const std::vector<IterVar> &AllAxes = Sem.allAxes();
  std::set<const IterVarNode *> AxisSet;
  for (const IterVar &IV : AllAxes)
    AxisSet.insert(IV.get());
  LinearIndex LI = analyzeLinearCoeffs(Load, AxisSet);
  if (!LI.Valid)
    reportFatalError("operand generation: instruction access is not affine");

  RegisterLayout Layout;
  Layout.Load = Load;
  for (const IterVar &IV : AllAxes)
    if (int64_t LaneCoeff = LI.coeffOf(IV.get())) {
      assert(LaneCoeff > 0 && "negative lane stride in instruction access");
      Layout.Axes.push_back({IV, LaneCoeff});
    }
  finishLayout(Layout);
  return Layout;
}

/// The output register's layout: the identity access over the
/// data-parallel axes, so the lane strides are the output tensor's.
RegisterLayout identityOutputLayout(const ComputeOp &Sem) {
  const std::vector<int64_t> &Strides = Sem.output()->strides();
  RegisterLayout Layout;
  for (size_t D = 0; D < Sem.axes().size(); ++D)
    Layout.Axes.push_back({Sem.axes()[D], Strides[D]});
  finishLayout(Layout);
  return Layout;
}

} // namespace

TensorIntrinsic::TensorIntrinsic(std::string Name, std::string LLVMIntrinsic,
                                 std::string Target, ComputeOpRef Semantics,
                                 IntrinsicCost Cost)
    : Name(std::move(Name)), LLVMIntrinsic(std::move(LLVMIntrinsic)),
      Target(std::move(Target)), Semantics(std::move(Semantics)), Cost(Cost) {
  assert(this->Semantics && "intrinsic needs semantics");
  assert(!this->Name.empty() && "intrinsic needs a name");
  assert(!this->Target.empty() && "intrinsic needs a target id");
  for (const LoadNode *Load : collectLoads(this->Semantics->body()))
    Layouts.push_back(loadLayout(*this->Semantics, Load));
  OutputLayout = identityOutputLayout(*this->Semantics);
}

const RegisterLayout &TensorIntrinsic::laneLayout(const LoadNode *Load) const {
  for (const RegisterLayout &L : Layouts)
    if (L.Load == Load)
      return L;
  reportFatalError("intrinsic '" + Name +
                   "': lane layout requested for a load outside its "
                   "semantics");
}

int64_t TensorIntrinsic::outputLanes() const {
  int64_t N = 1;
  for (const IterVar &IV : Semantics->axes())
    N *= IV->extent();
  return N;
}

int64_t TensorIntrinsic::reduceWidth() const {
  int64_t N = 1;
  for (const IterVar &IV : Semantics->reduceAxes())
    N *= IV->extent();
  return N;
}

IntrinsicRegistry &IntrinsicRegistry::instance() {
  // Magic-static initialization is thread-safe, so built-ins register
  // exactly once even when the first access races across pool threads.
  static IntrinsicRegistry *Registry = [] {
    auto *R = new IntrinsicRegistry();
    registerBuiltinIntrinsics(*R);
    return R;
  }();
  return *Registry;
}

void IntrinsicRegistry::add(TensorIntrinsicRef Intrinsic) {
  assert(Intrinsic && "null intrinsic");
  std::lock_guard<std::mutex> Lock(Mu);
  if (lookupLocked(Intrinsic->name()))
    reportFatalError("intrinsic '" + Intrinsic->name() +
                     "' registered twice");
  Intrinsics.push_back(std::move(Intrinsic));
}

void IntrinsicRegistry::addOrReplace(TensorIntrinsicRef Intrinsic) {
  assert(Intrinsic && "null intrinsic");
  std::lock_guard<std::mutex> Lock(Mu);
  for (TensorIntrinsicRef &I : Intrinsics)
    if (I->name() == Intrinsic->name()) {
      I = std::move(Intrinsic);
      return;
    }
  Intrinsics.push_back(std::move(Intrinsic));
}

TensorIntrinsicRef
IntrinsicRegistry::lookupLocked(const std::string &Name) const {
  for (const TensorIntrinsicRef &I : Intrinsics)
    if (I->name() == Name)
      return I;
  return nullptr;
}

TensorIntrinsicRef IntrinsicRegistry::lookup(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  return lookupLocked(Name);
}

std::vector<TensorIntrinsicRef>
IntrinsicRegistry::forTarget(const std::string &Target) const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<TensorIntrinsicRef> Out;
  for (const TensorIntrinsicRef &I : Intrinsics)
    if (I->target() == Target)
      Out.push_back(I);
  return Out;
}

std::vector<TensorIntrinsicRef> IntrinsicRegistry::all() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Intrinsics;
}
