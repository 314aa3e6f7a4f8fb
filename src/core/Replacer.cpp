//===- core/Replacer.cpp ---------------------------------------------------===//

#include "core/Replacer.h"

#include "core/OperandGen.h"
#include "ir/ExprUtil.h"
#include "support/ErrorHandling.h"
#include "tir/StmtVisitor.h"

#include <cassert>

using namespace unit;

namespace {

/// Replaces matching tensorize pragma regions with the generated call.
class TensorizeReplacer : public StmtMutator {
  const TensorizePlan &Plan;
  StmtRef Replacement;
  bool Replaced = false;

public:
  TensorizeReplacer(const TensorizePlan &Plan, StmtRef Replacement)
      : Plan(Plan), Replacement(std::move(Replacement)) {}

  bool replaced() const { return Replaced; }

  StmtRef mutatePragma(const StmtRef &S, const PragmaNode *N) override {
    if (N->Key == "tensorize" &&
        N->Value == Plan.Match.Intrinsic->name()) {
      Replaced = true;
      return Replacement;
    }
    return StmtMutator::mutatePragma(S, N);
  }
};

} // namespace

StmtRef unit::replaceTensorized(const StmtRef &Lowered,
                                const TensorizePlan &Plan) {
  const Schedule &S = *Plan.Sched;
  const ComputeOp &Op = *S.op();
  const TensorIntrinsic &Intr = *Plan.Match.Intrinsic;
  const ComputeOp &Sem = *Intr.semantics();

  // Resolve the schedule at the tile origin, every tile-inner loop 0: the
  // accesses flatten to their operands' base indices there, and the
  // residue guards only read outer loops.
  VarSubst Origin;
  Origin.reserve(Plan.InnerVarOf.size());
  for (const auto &[InstrAxis, Inner] : Plan.InnerVarOf)
    Origin.emplace(Inner.get(), makeIntImm(0));
  Schedule::Resolution Resolved = S.resolve(Origin);
  ExprRef OutIdx = generateOutputIndex(Plan, Resolved.Roots);

  // Register operands in the semantics' input order (the convention the
  // interpreter's emulation expects, interp/Interp.cpp).
  std::vector<ExprRef> Args;
  Args.reserve(Sem.inputs().size() + 1);
  for (const TensorRef &InstrInput : Sem.inputs()) {
    const OperandBinding *B = Plan.Match.Iso.bindingFor(InstrInput);
    if (!B)
      reportFatalError("replacer: no binding for instruction register '" +
                       InstrInput->name() + "'");
    Args.push_back(generateOperandExpr(Plan, *B, Resolved.Roots, OutIdx));
  }
  if (Intr.accumulatesInPlace())
    Args.push_back(makeVectorLoad(Op.output(), OutIdx));

  DataType CallType = Sem.output()->dtype().withLanes(
      static_cast<unsigned>(Sem.output()->numElements()));
  ExprRef Call =
      makeCall(Intr.name(), CallKind::Tensorized, std::move(Args), CallType);
  StmtRef Replacement = makeStore(Op.output(), OutIdx, std::move(Call));

  // Outer imperfect splits guard whole instruction tiles.
  for (const ExprRef &Pred : Resolved.Guards) {
    ExprRef Guard = makeCall("likely", CallKind::Pure, {Pred},
                             DataType::i32());
    Replacement = makeIfThenElse(std::move(Guard), std::move(Replacement));
  }

  TensorizeReplacer R(Plan, std::move(Replacement));
  StmtRef Out = R.mutate(Lowered);
  if (!R.replaced())
    reportFatalError("replacer: tensorize pragma for '" + Intr.name() +
                     "' not found in lowered IR");
  return Out;
}
