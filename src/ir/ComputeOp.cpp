//===- ir/ComputeOp.cpp ----------------------------------------------------===//

#include "ir/ComputeOp.h"

#include "ir/ExprUtil.h"
#include "ir/ExprVisitor.h"
#include "ir/Printer.h"
#include "support/ErrorHandling.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace unit;

ComputeOpRef ComputeOp::create(std::string Name, TensorRef Output,
                               std::vector<IterVar> Axes, ExprRef Body,
                               bool InPlaceUpdate) {
  if (!Output || !Body)
    reportFatalError("ComputeOp '" + Name + "': null output or body");
  if (Axes.size() != Output->rank())
    reportFatalError("ComputeOp '" + Name +
                     "': one data-parallel axis per output dimension "
                     "required");
  for (size_t I = 0; I < Axes.size(); ++I) {
    if (Axes[I]->isReduce())
      reportFatalError("ComputeOp '" + Name +
                       "': output axes must be data-parallel");
    if (Axes[I]->extent() != Output->dim(static_cast<unsigned>(I)))
      reportFatalError(formatStr(
          "ComputeOp '%s': axis '%s' extent %lld != output dim %lld",
          Name.c_str(), Axes[I]->name().c_str(),
          static_cast<long long>(Axes[I]->extent()),
          static_cast<long long>(Output->dim(static_cast<unsigned>(I)))));
  }
  if (!Body->dtype().isScalar() ||
      !Body->dtype().sameScalarType(Output->dtype()))
    reportFatalError("ComputeOp '" + Name +
                     "': body type " + Body->dtype().str() +
                     " does not match output element type " +
                     Output->dtype().str());

  auto Op = std::shared_ptr<ComputeOp>(new ComputeOp());
  Op->Name = std::move(Name);
  Op->Output = std::move(Output);
  Op->Axes = std::move(Axes);
  Op->Body = std::move(Body);
  Op->InPlaceUpdate = InPlaceUpdate;

  if (const auto *R = dyn_cast<ReduceNode>(Op->Body.get()))
    Op->ReduceAxes = R->Axes;
  Op->AllAxes = Op->Axes;
  Op->AllAxes.insert(Op->AllAxes.end(), Op->ReduceAxes.begin(),
                     Op->ReduceAxes.end());

  // Every referenced variable must be a declared axis.
  std::vector<IterVar> Used = collectVars(Op->Body);
  for (const IterVar &IV : Used) {
    bool Known =
        std::find(Op->Axes.begin(), Op->Axes.end(), IV) != Op->Axes.end() ||
        std::find(Op->ReduceAxes.begin(), Op->ReduceAxes.end(), IV) !=
            Op->ReduceAxes.end();
    if (!Known)
      reportFatalError("ComputeOp '" + Op->Name + "': loop variable '" +
                       IV->name() + "' is not a declared axis");
  }

  // Reduce must be the root only.
  struct NestedReduceCheck : ExprVisitor {
    bool Root = true;
    void visitReduce(const ReduceNode *N) override {
      if (!Root)
        reportFatalError("ComputeOp: Reduce only allowed at the body root");
      Root = false;
      ExprVisitor::visitReduce(N);
    }
  } Check;
  Check.visit(Op->Body);

  // Collect distinct input tensors.
  for (const LoadNode *L : collectLoads(Op->Body)) {
    if (L->Buf == Op->Output && Op->InPlaceUpdate)
      continue; // The in-place accumulator is not an extra input.
    if (std::find(Op->Inputs.begin(), Op->Inputs.end(), L->Buf) ==
        Op->Inputs.end())
      Op->Inputs.push_back(L->Buf);
  }
  return Op;
}

const ReduceNode *ComputeOp::reduceRoot() const {
  return dyn_cast<ReduceNode>(Body.get());
}

std::string ComputeOp::str() const {
  std::string Out = "compute " + Name + ":\n";
  for (const IterVar &IV : Axes)
    Out += formatStr("  axis %s : [0, %lld)\n", IV->name().c_str(),
                     static_cast<long long>(IV->extent()));
  for (const IterVar &IV : ReduceAxes)
    Out += formatStr("  reduce_axis %s : [0, %lld)\n", IV->name().c_str(),
                     static_cast<long long>(IV->extent()));
  std::vector<std::string> Idx;
  for (const IterVar &IV : Axes)
    Idx.push_back(IV->name());
  Out += "  " + Output->name() + "[" + join(Idx, ", ") + "] " +
         (InPlaceUpdate ? "+= " : "= ") + exprToString(Body) + "\n";
  return Out;
}
