//===- ir/LinearIndex.cpp --------------------------------------------------===//

#include "ir/LinearIndex.h"

#include "ir/ExprUtil.h"
#include "support/ErrorHandling.h"

using namespace unit;

namespace {

/// Returns true if \p L has no target terms and a constant base.
bool isPureConstant(const LinearIndex &L, int64_t *Value) {
  if (!L.Coeffs.empty())
    return false;
  return matchConstInt(L.Base, Value);
}

/// True if the expression mentions any target variable.
bool mentionsTargets(const ExprRef &E,
                     const std::set<const IterVarNode *> &Targets) {
  for (const IterVar &IV : collectVars(E))
    if (Targets.count(IV.get()))
      return true;
  return false;
}

LinearIndex invalid() { return LinearIndex{}; }

LinearIndex analyze(const ExprRef &E,
                    const std::set<const IterVarNode *> &Targets) {
  switch (E->kind()) {
  case ExprNode::Kind::IntImm: {
    LinearIndex L;
    L.Valid = true;
    L.Base = E;
    return L;
  }
  case ExprNode::Kind::Var: {
    const auto *V = cast<VarNode>(E);
    LinearIndex L;
    L.Valid = true;
    if (Targets.count(V->IV.get())) {
      L.Base = makeIntImm(0);
      L.Coeffs[V->IV.get()] = 1;
    } else {
      L.Base = E;
    }
    return L;
  }
  case ExprNode::Kind::Add:
  case ExprNode::Kind::Sub: {
    const auto *B = cast<BinaryNode>(E);
    LinearIndex L = analyze(B->LHS, Targets);
    LinearIndex R = analyze(B->RHS, Targets);
    if (!L.Valid || !R.Valid)
      return invalid();
    bool Negate = E->kind() == ExprNode::Kind::Sub;
    LinearIndex Out;
    Out.Valid = true;
    Out.Base = makeBinary(E->kind(), L.Base, R.Base);
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
    LinearIndex L = analyze(B->LHS, Targets);
    LinearIndex R = analyze(B->RHS, Targets);
    if (!L.Valid || !R.Valid)
      return invalid();
    int64_t C;
    if (isPureConstant(R, &C)) {
      LinearIndex Out;
      Out.Valid = true;
      Out.Base = L.Base * makeIntImm(C);
      for (const auto &[IV, K] : L.Coeffs)
        if (K * C != 0)
          Out.Coeffs[IV] = K * C;
      return Out;
    }
    if (isPureConstant(L, &C)) {
      LinearIndex Out;
      Out.Valid = true;
      Out.Base = makeIntImm(C) * R.Base;
      for (const auto &[IV, K] : R.Coeffs)
        if (K * C != 0)
          Out.Coeffs[IV] = K * C;
      return Out;
    }
    // Symbolic * symbolic: fine only when target-free.
    if (L.Coeffs.empty() && R.Coeffs.empty()) {
      LinearIndex Out;
      Out.Valid = true;
      Out.Base = E;
      return Out;
    }
    return invalid();
  }
  default: {
    // Any other node is opaque: acceptable as pure base when it does not
    // mention a target variable.
    if (mentionsTargets(E, Targets))
      return invalid();
    LinearIndex L;
    L.Valid = true;
    L.Base = E;
    return L;
  }
  }
}

} // namespace

LinearIndex unit::analyzeLinear(const ExprRef &E,
                                const std::set<const IterVarNode *> &Targets) {
  return analyze(E, Targets);
}

LinearIndex
unit::analyzeLinearCoeffs(const LoadNode *Load,
                          const std::set<const IterVarNode *> &Targets) {
  std::vector<int64_t> Strides = Load->Buf->strides();
  LinearIndex Out;
  for (size_t D = 0; D < Load->Indices.size(); ++D) {
    LinearIndex Dim = analyze(Load->Indices[D], Targets);
    if (!Dim.Valid)
      return invalid();
    for (const auto &[IV, C] : Dim.Coeffs) {
      Out.Coeffs[IV] += C * Strides[D];
      if (Out.Coeffs[IV] == 0)
        Out.Coeffs.erase(IV);
    }
  }
  Out.Valid = true;
  return Out;
}
