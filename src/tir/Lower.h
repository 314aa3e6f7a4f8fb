//===- tir/Lower.h - ComputeOp + Schedule -> tensor IR --------------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers a scheduled ComputeOp into imperative tensor IR:
///
///   * an initialization nest over the output (skipped for in-place-update
///     ops, whose accumulator is the live output buffer), then
///   * the main nest following the schedule's leaf order, where the store
///     accumulates `out = combine(out, source)` for reductions,
///   * with every multi-dimensional access flattened to row-major element
///     offsets, residue guards wrapped in `likely`, loop annotations and
///     pragmas materialized.
///
/// The main nest stops at the outermost `#pragma tensorize` leaf, whose
/// pragma gets an empty body: no loop, store or guard is built at or below
/// it. verifyTIR rejects the result until the Replacer (core/Replacer.h)
/// fills the region, as lowerPlan does.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_TIR_LOWER_H
#define UNIT_TIR_LOWER_H

#include "schedule/Schedule.h"
#include "tir/Stmt.h"

namespace unit {

/// Lowers \p S to tensor IR. Fatal-errors on malformed schedules.
StmtRef lower(const Schedule &S);

/// Row-major flat index expression for \p Buf with \p Indices.
ExprRef flattenIndex(const TensorRef &Buf, const std::vector<ExprRef> &Indices);

/// flattenIndex over the indices \p IndexOf(0) .. IndexOf(rank - 1),
/// each built as it is folded in: no index list is materialized.
template <typename IndexFn>
ExprRef flattenIndexBy(const TensorRef &Buf, IndexFn &&IndexOf) {
  const std::vector<int64_t> &Strides = Buf->strides();
  ExprRef Flat = makeIntImm(0);
  for (size_t I = 0; I < Strides.size(); ++I)
    Flat = std::move(Flat) + IndexOf(I) * makeIntImm(Strides[I]);
  return Flat;
}

} // namespace unit

#endif // UNIT_TIR_LOWER_H
