//===- core/OperandGen.h - Operand generation rules (paper §III.C.2) ------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the register-operand expressions for a tensorized call. For each
/// instruction register, the rule walks the register's lane layout from
/// slowest- to fastest-varying instruction axis and, per axis, either
///
///   * vectorizes (a stride Ramp) when it is the last axis and the
///     operation access depends on it,
///   * unrolls-and-concatenates when the operation access depends on it
///     but more axes follow, or
///   * broadcasts (tile-repeat) when the operation access is invariant
///     along it —
///
/// exactly the "c is a 16-lane vector; a vectorized by 4 and broadcast by
/// 16; b vectorized by 4, unrolled and concatenated along ki" rules of
/// paper Fig. 5(c). When the access is contiguous in lane order, every
/// axis vectorizes into one strided load instead.
///
/// The register side of the rule, the lane layout, belongs to the
/// instruction and is computed once per TensorIntrinsic
/// (TensorIntrinsic::laneLayout). The operation side is the access's
/// stride along each mapped loop, which inspect() records on the match
/// (OperandBinding::LaneStrides, from opLaneStrides).
/// operandRoles turns both into roles; the cost model (perf/CostModel.h)
/// counts loads from the same strides and roles, so its LoadsPerCall and
/// the generated operands cannot disagree. Only the base index of an
/// operand depends on the schedule: the access flattened at the tile
/// origin.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_CORE_OPERANDGEN_H
#define UNIT_CORE_OPERANDGEN_H

#include "core/Rewriter.h"

namespace unit {

/// How one instruction axis contributes to one operand (recorded for
/// diagnostics and the performance model's load counting).
enum class OperandAxisRole : uint8_t { Vectorize, Unroll, Broadcast };

/// Lane-layout role breakdown of one generated operand.
struct OperandInfo {
  TensorRef InstrTensor;
  ExprRef Operand; ///< The generated (vector) expression.
  /// Instruction axes and their roles, as far as the rule records them:
  /// the first axis (slowest first) that is not broadcast, then the
  /// broadcast axes before it (every axis, when all broadcast), innermost
  /// first. Axes after the first
  /// unrolled one are not listed, even when they unroll too, so a load
  /// count taken from these roles counts only the first unrolled axis's
  /// extent. A contiguous operand lists every axis as Vectorize. An
  /// accumulator lists its data-parallel axes as Vectorize.
  std::vector<std::pair<IterVar, OperandAxisRole>> Roles;
};

/// The roles of one register's lane axes.
struct OperandRoles {
  /// One role per axis of the layout, in layout order; the axis rule
  /// above, or all Vectorize for a contiguous access.
  std::vector<OperandAxisRole> PerAxis;
  /// What OperandInfo::Roles records for them.
  std::vector<std::pair<IterVar, OperandAxisRole>> Recorded;
  /// Vector loads one call spends on the register: the product of the
  /// recorded Unroll axes' extents.
  int64_t Loads = 1;
};

/// The role rule shared by generateOperand and the cost model.
/// \p OpStrides holds the operation's flat-index stride along each axis
/// of \p Layout, in layout order (0 where the access is invariant).
OperandRoles operandRoles(const RegisterLayout &Layout,
                          const std::vector<int64_t> &OpStrides);

/// Generates the operand expression for instruction register \p Binding.
///
/// The register's lane layout is the instruction's own
/// (TensorIntrinsic::laneLayout of \p Binding's InstrLoad), its strides
/// are the ones the match recorded (OperandBinding::LaneStrides) and its
/// roles come from operandRoles. \p Origin is the final schedule's
/// root-axis bindings at the tile origin: Schedule::resolve with every
/// tile-inner loop of \p Plan bound to 0 (outer loop variables stay
/// symbolic). The operation access flattened under it is the operand's
/// base index. For the accumulator register, pass the operation output
/// access via \p AccumIndex (the flat vector index into the output
/// buffer).
OperandInfo generateOperand(const TensorizePlan &Plan,
                            const OperandBinding &Binding,
                            const VarSubst &Origin, const ExprRef &AccumIndex);

/// generateOperand's Operand alone, what the Replacer passes to the call:
/// the same expression, with no role list built.
ExprRef generateOperandExpr(const TensorizePlan &Plan,
                            const OperandBinding &Binding,
                            const VarSubst &Origin, const ExprRef &AccumIndex);

/// Generates the flat vector index of the operation's *output* region
/// covered by one instruction call (lane order = instruction output
/// layout), from the same tile-origin bindings \p Origin. Also used as
/// the accumulator access.
ExprRef generateOutputIndex(const TensorizePlan &Plan, const VarSubst &Origin);

} // namespace unit

#endif // UNIT_CORE_OPERANDGEN_H
