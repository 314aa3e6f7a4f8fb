//===- ir/Expr.cpp ---------------------------------------------------------===//

#include "ir/Expr.h"

#include "support/ErrorHandling.h"

#include <cassert>

using namespace unit;

ExprNode::~ExprNode() = default;

IterVar unit::makeAxis(std::string Name, int64_t Extent) {
  assert(Extent > 0 && "axis extent must be positive");
  return std::make_shared<IterVarNode>(std::move(Name), Extent,
                                       IterKind::DataParallel);
}

IterVar unit::makeReduceAxis(std::string Name, int64_t Extent) {
  assert(Extent > 0 && "axis extent must be positive");
  return std::make_shared<IterVarNode>(std::move(Name), Extent,
                                       IterKind::Reduce);
}

/// The i32 immediates every caller shares. Index arithmetic builds the
/// same few constants (0, 1, tile factors, small strides) again and again,
/// and nodes are immutable, so one node per value serves them all.
static constexpr int64_t MinSharedImm = -128, MaxSharedImm = 1024;

ExprRef unit::makeIntImm(int64_t Value, DataType DType) {
  assert(DType.isIntegral() && "integer immediate needs an integral type");
  if (DType == DataType::i32() && Value >= MinSharedImm &&
      Value <= MaxSharedImm) {
    static const std::vector<ExprRef> Shared = [] {
      std::vector<ExprRef> Nodes;
      Nodes.reserve(MaxSharedImm - MinSharedImm + 1);
      for (int64_t V = MinSharedImm; V <= MaxSharedImm; ++V)
        Nodes.push_back(std::make_shared<IntImmNode>(V, DataType::i32()));
      return Nodes;
    }();
    return Shared[static_cast<size_t>(Value - MinSharedImm)];
  }
  return std::make_shared<IntImmNode>(Value, DType);
}

ExprRef unit::makeFloatImm(double Value, DataType DType) {
  assert(DType.isFloat() && "float immediate needs a float type");
  return std::make_shared<FloatImmNode>(Value, DType);
}

ExprRef unit::makeVar(const IterVar &IV) {
  assert(IV && "null IterVar");
  return std::make_shared<VarNode>(IV);
}

[[maybe_unused]] static bool isBinaryOp(ExprNode::Kind Op) {
  return Op >= ExprNode::Kind::Add && Op <= ExprNode::Kind::Max;
}

/// Constant-folds integral Op(L, R).
static int64_t foldInt(ExprNode::Kind Op, int64_t L, int64_t R) {
  switch (Op) {
  case ExprNode::Kind::Add:
    return L + R;
  case ExprNode::Kind::Sub:
    return L - R;
  case ExprNode::Kind::Mul:
    return L * R;
  case ExprNode::Kind::Div:
    assert(R != 0 && "division by zero in constant fold");
    return L / R;
  case ExprNode::Kind::Mod:
    assert(R != 0 && "modulo by zero in constant fold");
    return L % R;
  case ExprNode::Kind::Min:
    return L < R ? L : R;
  case ExprNode::Kind::Max:
    return L > R ? L : R;
  default:
    unit_unreachable("not a binary opcode");
  }
}

ExprRef unit::makeBinary(ExprNode::Kind Op, ExprRef LHS, ExprRef RHS) {
  assert(isBinaryOp(Op) && "makeBinary requires a binary opcode");
  assert(LHS && RHS && "null operand");
  assert(LHS->dtype() == RHS->dtype() &&
         "binary operands must have identical types");

  const auto *LI = dyn_cast<IntImmNode>(LHS);
  const auto *RI = dyn_cast<IntImmNode>(RHS);
  if (LI && RI)
    return makeIntImm(foldInt(Op, LI->Value, RI->Value), LHS->dtype());

  // Identities that keep index expressions readable after substitution.
  if (RI) {
    if (RI->Value == 0 && (Op == ExprNode::Kind::Add || Op == ExprNode::Kind::Sub))
      return LHS;
    if (RI->Value == 1 && (Op == ExprNode::Kind::Mul || Op == ExprNode::Kind::Div))
      return LHS;
    if (RI->Value == 0 && Op == ExprNode::Kind::Mul)
      return RHS;
  }
  if (LI) {
    if (LI->Value == 0 && Op == ExprNode::Kind::Add)
      return RHS;
    if (LI->Value == 1 && Op == ExprNode::Kind::Mul)
      return RHS;
    if (LI->Value == 0 && Op == ExprNode::Kind::Mul)
      return LHS;
  }
  DataType DType = LHS->dtype();
  return std::make_shared<BinaryNode>(Op, std::move(LHS), std::move(RHS),
                                      DType);
}

ExprRef unit::makeCast(DataType DType, ExprRef Value) {
  assert(Value && "null cast operand");
  assert(DType.lanes() == Value->dtype().lanes() &&
         "cast must preserve lane count");
  if (Value->dtype() == DType)
    return Value;
  return std::make_shared<CastNode>(DType, std::move(Value));
}

ExprRef unit::makeLoad(const TensorRef &Buf, std::vector<ExprRef> Indices) {
  assert(Buf && "null tensor");
  assert(Indices.size() == Buf->rank() &&
         "DSL-level load must index every tensor dimension");
  unsigned Lanes = 1;
  for (const ExprRef &I : Indices) {
    assert(I->dtype().isIntegral() && "indices must be integral");
    Lanes *= I->dtype().lanes();
  }
  return std::make_shared<LoadNode>(Buf, std::move(Indices),
                                    Buf->dtype().withLanes(Lanes));
}

ExprRef unit::makeVectorLoad(const TensorRef &Buf, ExprRef FlatIndex) {
  assert(Buf && FlatIndex && "null operand");
  unsigned Lanes = FlatIndex->dtype().lanes();
  std::vector<ExprRef> Indices;
  Indices.push_back(std::move(FlatIndex));
  return std::make_shared<LoadNode>(Buf, std::move(Indices),
                                    Buf->dtype().withLanes(Lanes));
}

ExprRef unit::makeSelect(ExprRef Cond, ExprRef TrueValue, ExprRef FalseValue) {
  assert(Cond && TrueValue && FalseValue && "null operand");
  assert(TrueValue->dtype() == FalseValue->dtype() &&
         "select arms must have identical types");
  return std::make_shared<SelectNode>(std::move(Cond), std::move(TrueValue),
                                      std::move(FalseValue));
}

ExprRef unit::makeRamp(ExprRef Base, int64_t Stride, unsigned Lanes) {
  assert(Base && Base->dtype().isScalar() && Base->dtype().isIntegral() &&
         "ramp base must be a scalar integer");
  assert(Lanes > 1 && "ramp needs at least two lanes");
  return std::make_shared<RampNode>(std::move(Base), Stride, Lanes);
}

ExprRef unit::makeBroadcast(ExprRef Value, unsigned Repeat) {
  assert(Value && "null broadcast operand");
  assert(Repeat > 1 && "broadcast repeat must exceed one");
  return std::make_shared<BroadcastNode>(std::move(Value), Repeat);
}

ExprRef unit::makeConcat(std::vector<ExprRef> Parts) {
  assert(!Parts.empty() && "empty concat");
  if (Parts.size() == 1)
    return Parts.front();
  unsigned Lanes = 0;
  DataType Scalar = Parts.front()->dtype().scalar();
  for (const ExprRef &P : Parts) {
    assert(P->dtype().scalar() == Scalar &&
           "concat parts must share a scalar type");
    Lanes += P->dtype().lanes();
  }
  return std::make_shared<ConcatNode>(std::move(Parts),
                                      Scalar.withLanes(Lanes));
}

ExprRef unit::makeCall(std::string Callee, CallKind CKind,
                       std::vector<ExprRef> Args, DataType DType) {
  return std::make_shared<CallNode>(std::move(Callee), CKind, std::move(Args),
                                    DType);
}

ExprRef unit::makeReduce(ReduceKind RKind, ExprRef Source,
                         std::vector<IterVar> Axes, ExprRef Init) {
  assert(Source && "null reduce source");
  assert(!Axes.empty() && "reduce needs at least one axis");
  for ([[maybe_unused]] const IterVar &A : Axes)
    assert(A->isReduce() && "reduce axes must be annotated Reduce");
  assert((!Init || Init->dtype() == Source->dtype()) &&
         "reduce init type must match the source");
  return std::make_shared<ReduceNode>(RKind, std::move(Source),
                                      std::move(Axes), std::move(Init));
}

ExprRef unit::operator+(ExprRef LHS, ExprRef RHS) {
  return makeBinary(ExprNode::Kind::Add, std::move(LHS), std::move(RHS));
}
ExprRef unit::operator-(ExprRef LHS, ExprRef RHS) {
  return makeBinary(ExprNode::Kind::Sub, std::move(LHS), std::move(RHS));
}
ExprRef unit::operator*(ExprRef LHS, ExprRef RHS) {
  return makeBinary(ExprNode::Kind::Mul, std::move(LHS), std::move(RHS));
}
ExprRef unit::operator/(ExprRef LHS, ExprRef RHS) {
  return makeBinary(ExprNode::Kind::Div, std::move(LHS), std::move(RHS));
}
ExprRef unit::operator%(ExprRef LHS, ExprRef RHS) {
  return makeBinary(ExprNode::Kind::Mod, std::move(LHS), std::move(RHS));
}
