//===- core/Inspector.h - Applicability detection (paper §III.B) ----------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Decides whether — and how — a tensorized instruction applies to a tensor
/// operation. Two steps (paper §III.B):
///
///  1. Compute isomorphism (Isomorphism.h): the expression trees match.
///  2. Array-access isomorphism: enumerate mappings f from operation loop
///     variables to instruction loop variables (same annotation, extents
///     tile perfectly) and keep those where every operand access pair
///     (u, v) satisfies S'(u) ⊆ S(v) — otherwise one register lane would
///     correspond to several memory addresses.
///
/// Mappings are enumerated innermost-first and the first feasible one is
/// preferred for locality (paper §IV.A); the rest are surfaced as an extra
/// tuning dimension (paper §III.B.2).
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_CORE_INSPECTOR_H
#define UNIT_CORE_INSPECTOR_H

#include "core/Isomorphism.h"
#include "isa/TensorIntrinsic.h"

#include <optional>
#include <vector>

namespace unit {

/// One feasible loop mapping: for every instruction axis, the operation
/// axis it tensorizes (instruction order: data-parallel axes then reduce
/// axes, matching TensorIntrinsic semantics order).
struct AxisMapping {
  /// Pairs of (operation axis, instruction axis).
  std::vector<std::pair<IterVar, IterVar>> Pairs;

  /// The operation axis mapped to \p InstrAxis, or null.
  IterVar opAxisFor(const IterVarNode *InstrAxis) const;
  /// The instruction axis \p OpAxis maps to, or null.
  IterVar instrAxisFor(const IterVarNode *OpAxis) const;
};

/// A successful applicability result. Each input binding of Iso carries
/// its LaneStrides under Mapping.
struct MatchResult {
  TensorIntrinsicRef Intrinsic;
  IsoResult Iso;
  AxisMapping Mapping;                   ///< Greedy innermost-first choice.
  std::vector<AxisMapping> Alternatives; ///< Other feasible mappings.
};

/// The operation's flat-index stride along each axis of \p Layout, in
/// layout order: the coefficient, in \p OpLoad's row-major flat index, of
/// the operation axis \p Mapping maps to that instruction axis (0 where
/// the access is invariant). A tile-inner loop has coefficient 1 in its
/// root axis whatever the schedule does to the outer loops, so this is
/// also the access's stride along the tile-inner loop. Fatal-errors when
/// \p OpLoad is not affine in the mapped axes.
std::vector<int64_t> opLaneStrides(const AxisMapping &Mapping,
                                   const RegisterLayout &Layout,
                                   const LoadNode *OpLoad);

/// Inspects one (operation, instruction) pair. Returns std::nullopt with
/// no side effects when inapplicable; \p WhyNot (optional) receives the
/// first failure reason for diagnostics.
std::optional<MatchResult> inspect(const ComputeOpRef &Op,
                                   const TensorIntrinsicRef &Intr,
                                   std::string *WhyNot = nullptr);

/// Tries every instruction of target id \p Target in the global
/// IntrinsicRegistry against \p Op, registration order. Returns all
/// matches (typically the caller takes the first or lets the tuner
/// choose). A TargetSpec's instructions enter the global registry when
/// the spec is registered (first TargetRegistry access registers the
/// shipped specs); when compiling for a registered target, prefer
/// backend->intrinsics() / compileForTarget, which consult the
/// backend's own spec list.
std::vector<MatchResult> inspectTarget(const ComputeOpRef &Op,
                                       const std::string &Target);

} // namespace unit

#endif // UNIT_CORE_INSPECTOR_H
