//===- ir/LinearIndex.h - Affine index analysis ----------------------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reads the coefficients of a load's flat index over a chosen set of
/// target loop variables, as if it were decomposed into
/// `Base + sum(Coeff_v * v)` with everything else symbolic in Base. Each
/// TensorIntrinsic reads its registers' lane strides with it, and operand
/// generation and the cost model read the operation's strides along the
/// mapped op axes: the coefficients that give each operand its
/// vectorize/broadcast/unroll roles (the "loop variable ... and their
/// coefficients in the index expression are exposed" interface of paper
/// §III.C.2). The analysis is coefficient-only: it builds no expression,
/// Base included. The full decomposition with its Base lives in the tests
/// (tests/LinearIndexOracle.h), as an independent oracle.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_IR_LINEARINDEX_H
#define UNIT_IR_LINEARINDEX_H

#include "ir/Expr.h"

#include <map>
#include <set>

namespace unit {

/// Coefficients of an affine index over target variables.
struct LinearIndex {
  bool Valid = false;
  std::map<const IterVarNode *, int64_t> Coeffs; ///< Per-target coefficients.

  /// Coefficient of \p IV (0 when absent).
  int64_t coeffOf(const IterVarNode *IV) const {
    auto It = Coeffs.find(IV);
    return It == Coeffs.end() ? 0 : It->second;
  }
  bool dependsOn(const IterVarNode *IV) const { return coeffOf(IV) != 0; }
};

/// The coefficients of \p Load's row-major flat index (tir/Lower.h's
/// flattenIndex) over \p Targets, combined per dimension from the tensor
/// strides without building the flat expression. Valid=false when an
/// index is not affine in the targets (a target multiplied by a
/// non-constant, or inside a division/modulo).
LinearIndex analyzeLinearCoeffs(const LoadNode *Load,
                                const std::set<const IterVarNode *> &Targets);

} // namespace unit

#endif // UNIT_IR_LINEARINDEX_H
