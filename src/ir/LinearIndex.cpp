//===- ir/LinearIndex.cpp --------------------------------------------------===//

#include "ir/LinearIndex.h"

#include "ir/ExprUtil.h"

#include <optional>

using namespace unit;

namespace {

/// One subexpression's coefficients, and the value its Base folds to when
/// that Base would be an integer immediate under makeBinary's folding and
/// identities: only a constant Base can scale a product.
struct Term {
  bool Valid = true;
  std::optional<int64_t> Const;
  std::map<const IterVarNode *, int64_t> Coeffs;
};

Term invalid() { return Term{false, std::nullopt, {}}; }

Term analyze(const ExprRef &E, const std::set<const IterVarNode *> &Targets) {
  switch (E->kind()) {
  case ExprNode::Kind::IntImm:
    return Term{true, cast<IntImmNode>(E)->Value, {}};
  case ExprNode::Kind::Var: {
    const IterVarNode *IV = cast<VarNode>(E)->IV.get();
    if (!Targets.count(IV))
      return Term{};
    return Term{true, 0, {{IV, 1}}};
  }
  case ExprNode::Kind::Add:
  case ExprNode::Kind::Sub:
  case ExprNode::Kind::Mul: {
    const auto *B = cast<BinaryNode>(E);
    Term L = analyze(B->LHS, Targets);
    Term R = analyze(B->RHS, Targets);
    if (!L.Valid || !R.Valid)
      return invalid();
    if (E->kind() != ExprNode::Kind::Mul) {
      bool Negate = E->kind() == ExprNode::Kind::Sub;
      // A Base folds only when both sides do: an identity with one
      // constant side returns the other, symbolic side.
      L.Const = L.Const && R.Const ? std::optional<int64_t>(
                                         Negate ? *L.Const - *R.Const
                                                : *L.Const + *R.Const)
                                   : std::nullopt;
      for (const auto &[IV, C] : R.Coeffs)
        if ((L.Coeffs[IV] += Negate ? -C : C) == 0)
          L.Coeffs.erase(IV);
      return L;
    }
    // Scale the side with terms by the pure constant on the other side;
    // its Base times C folds when it is constant or C is 0 (`x * 0`).
    bool RightConst = R.Coeffs.empty() && R.Const;
    if (RightConst || (L.Coeffs.empty() && L.Const)) {
      Term &T = RightConst ? L : R;
      int64_t C = RightConst ? *R.Const : *L.Const;
      T.Const = T.Const ? std::optional<int64_t>(*T.Const * C)
                : C == 0 ? std::optional<int64_t>(0)
                         : std::nullopt;
      if (C == 0)
        T.Coeffs.clear();
      for (auto &[IV, K] : T.Coeffs)
        K *= C;
      return std::move(T);
    }
    // Symbolic * symbolic: fine only when target-free.
    if (L.Coeffs.empty() && R.Coeffs.empty())
      return Term{};
    return invalid();
  }
  default:
    // Any other node is opaque: acceptable as a symbolic Base when it
    // does not mention a target variable.
    for (const IterVar &IV : collectVars(E))
      if (Targets.count(IV.get()))
        return invalid();
    return Term{};
  }
}

} // namespace

LinearIndex
unit::analyzeLinearCoeffs(const LoadNode *Load,
                          const std::set<const IterVarNode *> &Targets) {
  const std::vector<int64_t> &Strides = Load->Buf->strides();
  LinearIndex Out;
  for (size_t D = 0; D < Load->Indices.size(); ++D) {
    Term Dim = analyze(Load->Indices[D], Targets);
    if (!Dim.Valid)
      return LinearIndex{};
    for (const auto &[IV, C] : Dim.Coeffs)
      if ((Out.Coeffs[IV] += C * Strides[D]) == 0)
        Out.Coeffs.erase(IV);
  }
  Out.Valid = true;
  return Out;
}
