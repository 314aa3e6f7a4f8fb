//===- ir/ComputeOp.h - Tensor operation programs --------------------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ComputeOp is the tensor Op data structure of paper §II.C.2: the
/// declared tensors, loop variables, and expression of one tensor
/// operation. Both deep-learning operators (conv, dense) *and* the
/// semantics of tensorized instructions (paper Fig. 4) are ComputeOps —
/// that shared abstraction is what makes the Inspector's analysis uniform.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_IR_COMPUTEOP_H
#define UNIT_IR_COMPUTEOP_H

#include "ir/Expr.h"

#include <memory>
#include <string>
#include <vector>

namespace unit {

class ComputeOp;
using ComputeOpRef = std::shared_ptr<const ComputeOp>;

/// A single tensor operation: `Output[Axes...] = Body`, where Body may be
/// a Reduce over additional reduce axes.
class ComputeOp {
  std::string Name;
  TensorRef Output;
  std::vector<IterVar> Axes;       ///< Data-parallel axes, one per output dim.
  std::vector<IterVar> ReduceAxes; ///< From the Reduce root (if any).
  std::vector<IterVar> AllAxes;    ///< Axes then ReduceAxes.
  ExprRef Body;
  bool InPlaceUpdate; ///< Accumulator register must alias the output (+=).
  std::vector<TensorRef> Inputs; ///< Distinct load sources, appearance order.

  ComputeOp() = default;

public:
  /// Builds and validates a ComputeOp.
  ///
  /// Checks: one axis per output dimension with matching extents; the body
  /// dtype matches the output element type; every loop variable referenced
  /// belongs to Axes or to the Reduce's axes; Reduce appears only at the
  /// root. Fatal-errors on violation (these are user programs).
  ///
  /// \param InPlaceUpdate marks `+=` semantics (Tensor Core, paper Fig. 4c):
  /// the accumulator register is the output register, so the Inspector must
  /// bind the instruction's accumulator to the operation's output buffer.
  static ComputeOpRef create(std::string Name, TensorRef Output,
                             std::vector<IterVar> Axes, ExprRef Body,
                             bool InPlaceUpdate = false);

  const std::string &name() const { return Name; }
  const TensorRef &output() const { return Output; }
  const std::vector<IterVar> &axes() const { return Axes; }
  const std::vector<IterVar> &reduceAxes() const { return ReduceAxes; }
  const ExprRef &body() const { return Body; }
  bool isInPlaceUpdate() const { return InPlaceUpdate; }
  const std::vector<TensorRef> &inputs() const { return Inputs; }

  /// The Reduce root, or null for pure elementwise ops.
  const ReduceNode *reduceRoot() const;

  /// All axes: data-parallel then reduce.
  const std::vector<IterVar> &allAxes() const { return AllAxes; }

  /// Human-readable multi-line rendering.
  std::string str() const;
};

} // namespace unit

#endif // UNIT_IR_COMPUTEOP_H
