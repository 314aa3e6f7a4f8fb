//===- ir/ExprUtil.h - Expression analyses and rewrites -------------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared expression helpers: structural equality, loop-variable
/// substitution, and collection of variables/loads — used by the Schedule
/// lowering, the Inspector, and tests.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_IR_EXPRUTIL_H
#define UNIT_IR_EXPRUTIL_H

#include "ir/Expr.h"
#include "support/FlatMap.h"

#include <vector>

namespace unit {

/// Structural equality: same shape, kinds, dtypes, immediates; loop
/// variables compare by IterVar identity and tensors by TensorNode identity.
bool structuralEqual(const ExprRef &A, const ExprRef &B);

/// Substitution map keyed by IterVar node identity: a flat table, since
/// a schedule binds at most a few dozen loop variables.
using VarSubst = FlatMap<const IterVarNode *, ExprRef>;

/// Replaces every VarNode whose IterVar appears in \p Subst.
ExprRef substitute(const ExprRef &E, const VarSubst &Subst);

/// Collects distinct loop variables in first-appearance order.
std::vector<IterVar> collectVars(const ExprRef &E);

/// Collects every Load node (in visit order; duplicates preserved).
std::vector<const LoadNode *> collectLoads(const ExprRef &E);

/// Returns the constant value if \p E is an IntImm.
bool matchConstInt(const ExprRef &E, int64_t *Value);

} // namespace unit

#endif // UNIT_IR_EXPRUTIL_H
