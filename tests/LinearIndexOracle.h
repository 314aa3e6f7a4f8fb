//===- tests/LinearIndexOracle.h - Full affine decomposition ---*- C++ -*-===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
// The full affine decomposition `Base + sum(Coeff_v * v)` of an index
// expression, Base built with makeBinary's folding. The library reads
// coefficients only (ir/LinearIndex.h's analyzeLinearCoeffs, which builds
// no expression); the tests keep this independent walker as its oracle.
//
//===----------------------------------------------------------------------===//

#ifndef UNIT_TESTS_LINEARINDEXORACLE_H
#define UNIT_TESTS_LINEARINDEXORACLE_H

#include "ir/ExprUtil.h"
#include "ir/LinearIndex.h"

namespace unit {
namespace testutil {

/// A LinearIndex with the expression free of every target variable.
struct LinearDecomposition : LinearIndex {
  ExprRef Base;
};

namespace detail {

/// Returns true if \p L has no target terms and a constant base.
inline bool isPureConstant(const LinearDecomposition &L, int64_t *Value) {
  if (!L.Coeffs.empty())
    return false;
  return matchConstInt(L.Base, Value);
}

/// A valid decomposition with Base \p Base and no target terms.
inline LinearDecomposition pureBase(ExprRef Base) {
  LinearDecomposition L;
  L.Valid = true;
  L.Base = std::move(Base);
  return L;
}

} // namespace detail

/// Decomposes \p E as Base + sum(Coeff_v * v) for v in \p Targets.
/// Returns Valid=false when \p E is not affine in the targets (a target
/// multiplied by a non-constant, or inside a division/modulo).
inline LinearDecomposition
analyzeLinear(const ExprRef &E, const std::set<const IterVarNode *> &Targets) {
  using detail::isPureConstant;
  using detail::pureBase;
  switch (E->kind()) {
  case ExprNode::Kind::IntImm:
    return pureBase(E);
  case ExprNode::Kind::Var: {
    const auto *V = cast<VarNode>(E);
    if (!Targets.count(V->IV.get()))
      return pureBase(E);
    LinearDecomposition L = pureBase(makeIntImm(0));
    L.Coeffs[V->IV.get()] = 1;
    return L;
  }
  case ExprNode::Kind::Add:
  case ExprNode::Kind::Sub: {
    const auto *B = cast<BinaryNode>(E);
    LinearDecomposition L = analyzeLinear(B->LHS, Targets);
    LinearDecomposition R = analyzeLinear(B->RHS, Targets);
    if (!L.Valid || !R.Valid)
      return LinearDecomposition{};
    bool Negate = E->kind() == ExprNode::Kind::Sub;
    LinearDecomposition Out = pureBase(makeBinary(E->kind(), L.Base, R.Base));
    Out.Coeffs = std::move(L.Coeffs);
    for (const auto &[IV, C] : R.Coeffs) {
      Out.Coeffs[IV] += Negate ? -C : C;
      if (Out.Coeffs[IV] == 0)
        Out.Coeffs.erase(IV);
    }
    return Out;
  }
  case ExprNode::Kind::Mul: {
    const auto *B = cast<BinaryNode>(E);
    LinearDecomposition L = analyzeLinear(B->LHS, Targets);
    LinearDecomposition R = analyzeLinear(B->RHS, Targets);
    if (!L.Valid || !R.Valid)
      return LinearDecomposition{};
    int64_t C;
    if (isPureConstant(R, &C)) {
      LinearDecomposition Out = pureBase(L.Base * makeIntImm(C));
      for (const auto &[IV, K] : L.Coeffs)
        if (K * C != 0)
          Out.Coeffs[IV] = K * C;
      return Out;
    }
    if (isPureConstant(L, &C)) {
      LinearDecomposition Out = pureBase(makeIntImm(C) * R.Base);
      for (const auto &[IV, K] : R.Coeffs)
        if (K * C != 0)
          Out.Coeffs[IV] = K * C;
      return Out;
    }
    // Symbolic * symbolic: fine only when target-free.
    if (L.Coeffs.empty() && R.Coeffs.empty())
      return pureBase(E);
    return LinearDecomposition{};
  }
  default:
    // Any other node is opaque: acceptable as pure base when it does not
    // mention a target variable.
    for (const IterVar &IV : collectVars(E))
      if (Targets.count(IV.get()))
        return LinearDecomposition{};
    return pureBase(E);
  }
}

} // namespace testutil
} // namespace unit

#endif // UNIT_TESTS_LINEARINDEXORACLE_H
