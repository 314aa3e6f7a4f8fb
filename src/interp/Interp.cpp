//===- interp/Interp.cpp ---------------------------------------------------===//

#include "interp/Interp.h"

#include "isa/TensorIntrinsic.h"
#include "support/ErrorHandling.h"
#include "tir/Lower.h"

#include <cassert>
#include <mutex>

using namespace unit;

Value Value::scalarInt(int64_t V, DataType DT) {
  assert(DT.isIntegral() && DT.isScalar());
  Value Out;
  Out.DT = DT;
  Out.Ints.push_back(V);
  return Out;
}

Value Value::scalarFloat(double V, DataType DT) {
  assert(DT.isFloat() && DT.isScalar());
  Value Out;
  Out.DT = DT;
  Out.Floats.push_back(V);
  return Out;
}

namespace {

/// Wraps \p V to the two's-complement range of \p DT.
int64_t wrapInt(int64_t V, DataType DT) {
  unsigned Bits = DT.bits();
  if (Bits >= 64)
    return V;
  uint64_t Mask = (uint64_t(1) << Bits) - 1;
  uint64_t U = static_cast<uint64_t>(V) & Mask;
  if (DT.isUInt())
    return static_cast<int64_t>(U);
  // Sign extend.
  uint64_t SignBit = uint64_t(1) << (Bits - 1);
  return static_cast<int64_t>((U ^ SignBit)) - static_cast<int64_t>(SignBit);
}

/// Rounds a float value per \p DT (f16 round-to-nearest-even).
double roundFloat(double V, DataType DT) {
  if (DT.bits() == 16)
    return fp16RoundToNearest(static_cast<float>(V));
  if (DT.bits() == 32)
    return static_cast<float>(V);
  return V;
}

int64_t applyIntOp(ExprNode::Kind Op, int64_t L, int64_t R) {
  switch (Op) {
  case ExprNode::Kind::Add:
    return L + R;
  case ExprNode::Kind::Sub:
    return L - R;
  case ExprNode::Kind::Mul:
    return L * R;
  case ExprNode::Kind::Div:
    if (R == 0)
      reportFatalError("interp: integer division by zero");
    return L / R;
  case ExprNode::Kind::Mod:
    if (R == 0)
      reportFatalError("interp: integer modulo by zero");
    return L % R;
  case ExprNode::Kind::Min:
    return L < R ? L : R;
  case ExprNode::Kind::Max:
    return L > R ? L : R;
  default:
    unit_unreachable("not a binary opcode");
  }
}

double applyFloatOp(ExprNode::Kind Op, double L, double R) {
  switch (Op) {
  case ExprNode::Kind::Add:
    return L + R;
  case ExprNode::Kind::Sub:
    return L - R;
  case ExprNode::Kind::Mul:
    return L * R;
  case ExprNode::Kind::Div:
    return L / R;
  case ExprNode::Kind::Mod:
    reportFatalError("interp: float modulo unsupported");
  case ExprNode::Kind::Min:
    return L < R ? L : R;
  case ExprNode::Kind::Max:
    return L > R ? L : R;
  default:
    unit_unreachable("not a binary opcode");
  }
}

} // namespace

void Interp::bind(const TensorRef &T, Buffer *Buf) {
  assert(T && Buf && "null binding");
  Buffers[T.get()] = Buf;
}

Buffer *Interp::lookup(const TensorRef &T) {
  auto It = Buffers.find(T.get());
  if (It == Buffers.end())
    reportFatalError("interp: tensor '" + T->name() + "' is not bound");
  return It->second;
}

void Interp::run(const StmtRef &S) {
  Env.clear();
  exec(S);
}

void Interp::exec(const StmtRef &S) {
  switch (S->kind()) {
  case StmtNode::Kind::For: {
    const auto *F = cast<ForNode>(S);
    const IterVarNode *IV = F->LoopVar.get();
    for (int64_t I = 0, E = F->extent(); I != E; ++I) {
      Env[IV] = I;
      exec(F->Body);
    }
    Env.erase(IV);
    return;
  }
  case StmtNode::Kind::Store: {
    const auto *St = cast<StoreNode>(S);
    Buffer *Buf = lookup(St->Buf);
    Value Idx = eval(St->Index);
    Value Val = eval(St->Value);
    assert(Idx.lanes() == Val.lanes() && "store lane mismatch");
    for (unsigned L = 0; L < Idx.lanes(); ++L) {
      int64_t At = Idx.Ints[L];
      if (Val.isInt())
        Buf->setInt(At, Val.Ints[L]);
      else
        Buf->setFloat(At, Val.Floats[L]);
    }
    return;
  }
  case StmtNode::Kind::Seq: {
    for (const StmtRef &X : cast<SeqNode>(S)->Stmts)
      exec(X);
    return;
  }
  case StmtNode::Kind::IfThenElse: {
    const auto *If = cast<IfThenElseNode>(S);
    Value Cond = eval(If->Cond);
    assert(Cond.isInt() && Cond.lanes() == 1 && "non-scalar condition");
    if (Cond.Ints[0] != 0)
      exec(If->Then);
    else if (If->Else)
      exec(If->Else);
    return;
  }
  case StmtNode::Kind::Pragma:
    exec(cast<PragmaNode>(S)->Body);
    return;
  case StmtNode::Kind::Evaluate:
    eval(cast<EvaluateNode>(S)->Value);
    return;
  }
  unit_unreachable("unknown statement kind");
}

Value Interp::eval(const ExprRef &E) {
  switch (E->kind()) {
  case ExprNode::Kind::IntImm:
    return Value::scalarInt(cast<IntImmNode>(E)->Value, E->dtype());
  case ExprNode::Kind::FloatImm:
    return Value::scalarFloat(cast<FloatImmNode>(E)->Value, E->dtype());
  case ExprNode::Kind::Var: {
    const auto *V = cast<VarNode>(E);
    auto It = Env.find(V->IV.get());
    if (It == Env.end())
      reportFatalError("interp: loop variable '" + V->IV->name() +
                       "' unbound");
    return Value::scalarInt(It->second, DataType::i32());
  }
  case ExprNode::Kind::Add:
  case ExprNode::Kind::Sub:
  case ExprNode::Kind::Mul:
  case ExprNode::Kind::Div:
  case ExprNode::Kind::Mod:
  case ExprNode::Kind::Min:
  case ExprNode::Kind::Max: {
    const auto *B = cast<BinaryNode>(E);
    Value L = eval(B->LHS);
    Value R = eval(B->RHS);
    Value Out;
    Out.DT = E->dtype();
    if (Out.DT.isIntegral()) {
      Out.Ints.resize(Out.lanes());
      for (unsigned I = 0; I < Out.lanes(); ++I)
        Out.Ints[I] =
            wrapInt(applyIntOp(E->kind(), L.Ints[I], R.Ints[I]), Out.DT);
    } else {
      Out.Floats.resize(Out.lanes());
      for (unsigned I = 0; I < Out.lanes(); ++I)
        Out.Floats[I] = roundFloat(
            applyFloatOp(E->kind(), L.Floats[I], R.Floats[I]), Out.DT);
    }
    return Out;
  }
  case ExprNode::Kind::Cast: {
    const auto *C = cast<CastNode>(E);
    Value In = eval(C->Value);
    Value Out;
    Out.DT = E->dtype();
    if (Out.DT.isIntegral()) {
      Out.Ints.resize(Out.lanes());
      for (unsigned I = 0; I < Out.lanes(); ++I) {
        int64_t V = In.isInt() ? In.Ints[I]
                               : static_cast<int64_t>(In.Floats[I]);
        Out.Ints[I] = wrapInt(V, Out.DT);
      }
    } else {
      Out.Floats.resize(Out.lanes());
      for (unsigned I = 0; I < Out.lanes(); ++I) {
        double V = In.isInt() ? static_cast<double>(In.Ints[I])
                              : In.Floats[I];
        Out.Floats[I] = roundFloat(V, Out.DT);
      }
    }
    return Out;
  }
  case ExprNode::Kind::Load: {
    const auto *L = cast<LoadNode>(E);
    if (L->Indices.size() != 1)
      reportFatalError("interp: unflattened load of '" + L->Buf->name() +
                       "' reached execution");
    Buffer *Buf = lookup(L->Buf);
    Value Idx = eval(L->Indices.front());
    Value Out;
    Out.DT = E->dtype();
    if (Out.DT.isIntegral()) {
      Out.Ints.resize(Out.lanes());
      for (unsigned I = 0; I < Out.lanes(); ++I)
        Out.Ints[I] = Buf->getInt(Idx.Ints[I]);
    } else {
      Out.Floats.resize(Out.lanes());
      for (unsigned I = 0; I < Out.lanes(); ++I)
        Out.Floats[I] = Buf->getFloat(Idx.Ints[I]);
    }
    return Out;
  }
  case ExprNode::Kind::Select: {
    const auto *Sel = cast<SelectNode>(E);
    Value Cond = eval(Sel->Cond);
    return Cond.Ints[0] != 0 ? eval(Sel->TrueValue) : eval(Sel->FalseValue);
  }
  case ExprNode::Kind::Ramp: {
    const auto *R = cast<RampNode>(E);
    Value Base = eval(R->Base);
    Value Out;
    Out.DT = E->dtype();
    Out.Ints.resize(Out.lanes());
    for (unsigned I = 0; I < Out.lanes(); ++I)
      Out.Ints[I] = Base.Ints[0] + R->Stride * I;
    return Out;
  }
  case ExprNode::Kind::Broadcast: {
    const auto *B = cast<BroadcastNode>(E);
    Value In = eval(B->Value);
    Value Out;
    Out.DT = E->dtype();
    unsigned InLanes = In.lanes();
    if (Out.DT.isIntegral()) {
      Out.Ints.resize(Out.lanes());
      for (unsigned I = 0; I < Out.lanes(); ++I)
        Out.Ints[I] = In.Ints[I % InLanes];
    } else {
      Out.Floats.resize(Out.lanes());
      for (unsigned I = 0; I < Out.lanes(); ++I)
        Out.Floats[I] = In.Floats[I % InLanes];
    }
    return Out;
  }
  case ExprNode::Kind::Concat: {
    const auto *C = cast<ConcatNode>(E);
    Value Out;
    Out.DT = E->dtype();
    for (const ExprRef &P : C->Parts) {
      Value V = eval(P);
      if (Out.DT.isIntegral())
        Out.Ints.insert(Out.Ints.end(), V.Ints.begin(), V.Ints.end());
      else
        Out.Floats.insert(Out.Floats.end(), V.Floats.begin(), V.Floats.end());
    }
    return Out;
  }
  case ExprNode::Kind::Call: {
    const auto *C = cast<CallNode>(E);
    if (C->CKind == CallKind::Tensorized)
      return evalIntrinsic(C);
    if (C->Callee == "likely") {
      assert(C->Args.size() == 1 && "likely takes one argument");
      return eval(C->Args[0]);
    }
    if (C->Callee == "lt") {
      assert(C->Args.size() == 2 && "lt takes two arguments");
      Value L = eval(C->Args[0]);
      Value R = eval(C->Args[1]);
      return Value::scalarInt(L.Ints[0] < R.Ints[0] ? 1 : 0, DataType::i32());
    }
    reportFatalError("interp: unknown builtin '" + C->Callee + "'");
  }
  case ExprNode::Kind::Reduce:
    reportFatalError("interp: Reduce node reached execution");
  }
  unit_unreachable("unknown expression kind");
}

Value Interp::evalIntrinsic(const CallNode *Call) {
  TensorIntrinsicRef Intr = IntrinsicRegistry::instance().lookup(Call->Callee);
  if (!Intr)
    reportFatalError("interp: unregistered tensorized instruction '" +
                     Call->Callee + "'");
  const ComputeOp &Sem = *Intr->semantics();

  // Argument convention (shared with core/Replacer.cpp): one flat vector
  // per semantics input tensor in declared order, plus the current
  // accumulator value appended for in-place instructions.
  size_t ExpectedArgs =
      Sem.inputs().size() + (Intr->accumulatesInPlace() ? 1 : 0);
  if (Call->Args.size() != ExpectedArgs)
    reportFatalError("interp: intrinsic '" + Call->Callee +
                     "' called with wrong argument count");

  // Materialize register operands as small buffers.
  std::vector<std::unique_ptr<Buffer>> Storage;
  Interp Inner;
  auto MaterializeArg = [&](const TensorRef &T, const Value &V) {
    assert(static_cast<int64_t>(V.lanes()) == T->numElements() &&
           "operand lane count must fill the register");
    auto Buf = std::make_unique<Buffer>(T);
    for (unsigned I = 0; I < V.lanes(); ++I) {
      if (V.isInt())
        Buf->setInt(I, V.Ints[I]);
      else
        Buf->setFloat(I, V.Floats[I]);
    }
    Inner.bind(T, Buf.get());
    Storage.push_back(std::move(Buf));
  };

  for (size_t I = 0; I < Sem.inputs().size(); ++I)
    MaterializeArg(Sem.inputs()[I], eval(Call->Args[I]));

  const TensorRef &Out = Sem.output();
  auto OutBuf = std::make_unique<Buffer>(Out);
  if (Intr->accumulatesInPlace()) {
    Value Acc = eval(Call->Args.back());
    assert(static_cast<int64_t>(Acc.lanes()) == Out->numElements() &&
           "accumulator lane count must fill the output register");
    for (unsigned I = 0; I < Acc.lanes(); ++I) {
      if (Acc.isInt())
        OutBuf->setInt(I, Acc.Ints[I]);
      else
        OutBuf->setFloat(I, Acc.Floats[I]);
    }
  }
  Inner.bind(Out, OutBuf.get());

  // Interpret the instruction's own DSL semantics (cached lowering, keyed
  // by an owning ref so no freed op's address is reused; locked).
  static std::mutex CacheMu;
  static std::map<ComputeOpRef, StmtRef> LoweredCache;
  StmtRef Program;
  {
    std::lock_guard<std::mutex> Lock(CacheMu);
    StmtRef &Slot = LoweredCache[Intr->semantics()];
    if (!Slot)
      Slot = lower(Schedule(Intr->semantics()));
    Program = Slot;
  }
  Inner.run(Program);

  // Read back the output register.
  Value Result;
  Result.DT = Out->dtype().withLanes(
      static_cast<unsigned>(Out->numElements()));
  if (Result.DT.isIntegral()) {
    Result.Ints.resize(Result.lanes());
    for (unsigned I = 0; I < Result.lanes(); ++I)
      Result.Ints[I] = OutBuf->getInt(I);
  } else {
    Result.Floats.resize(Result.lanes());
    for (unsigned I = 0; I < Result.lanes(); ++I)
      Result.Floats[I] = OutBuf->getFloat(I);
  }
  return Result;
}

void unit::runComputeOpReference(
    const ComputeOpRef &Op,
    const std::vector<std::pair<TensorRef, Buffer *>> &Bindings) {
  Schedule S(Op);
  StmtRef Lowered = lower(S);
  Interp I;
  for (const auto &[T, Buf] : Bindings)
    I.bind(T, Buf);
  I.run(Lowered);
}
