//===- ir/LinearIndex.h - Affine index analysis ----------------------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Decomposes an index expression into `Base + sum(Coeff_v * v)` over a
/// chosen set of target loop variables, leaving everything else symbolic in
/// Base. Each TensorIntrinsic reads its registers' lane strides with it,
/// and operand generation and the cost model read the operation's strides
/// along the mapped op axes: the coefficients that give each operand its
/// vectorize/broadcast/unroll roles (the "loop variable ... and their
/// coefficients in the index expression are exposed" interface of paper
/// §III.C.2). Both read coefficients only (analyzeLinearCoeffs); the
/// full decomposition with its Base serves tests as an independent
/// oracle over lowered index expressions.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_IR_LINEARINDEX_H
#define UNIT_IR_LINEARINDEX_H

#include "ir/Expr.h"

#include <map>
#include <set>

namespace unit {

/// Result of affine decomposition over target variables.
struct LinearIndex {
  bool Valid = false;
  ExprRef Base; ///< Expression free of every target variable.
  std::map<const IterVarNode *, int64_t> Coeffs; ///< Per-target coefficients.

  /// Coefficient of \p IV (0 when absent).
  int64_t coeffOf(const IterVarNode *IV) const {
    auto It = Coeffs.find(IV);
    return It == Coeffs.end() ? 0 : It->second;
  }
  bool dependsOn(const IterVarNode *IV) const { return coeffOf(IV) != 0; }
};

/// Decomposes \p E as Base + sum(Coeff_v * v) for v in \p Targets.
/// Returns Valid=false when \p E is not affine in the targets (a target
/// multiplied by a non-constant, or inside a division/modulo).
LinearIndex analyzeLinear(const ExprRef &E,
                          const std::set<const IterVarNode *> &Targets);

/// The coefficients analyzeLinear reports for \p Load's row-major flat
/// index (tir/Lower.h's flattenIndex), combined per dimension from the
/// tensor strides without building the flat expression. Valid=false under
/// the same condition; Base is left null.
LinearIndex analyzeLinearCoeffs(const LoadNode *Load,
                                const std::set<const IterVarNode *> &Targets);

} // namespace unit

#endif // UNIT_IR_LINEARINDEX_H
