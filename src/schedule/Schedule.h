//===- schedule/Schedule.h - Loop transformation primitives ---------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tensor-DSL scheduling: split / fuse / reorder / annotate loops of one
/// ComputeOp without changing its semantics (paper §II.C.2). The Rewriter
/// expresses its loop reorganization with these primitives, and the Tuner
/// explores spaces of them (paper §III.C, Fig. 7).
///
/// A Schedule tracks the evolving list of leaf loops plus the split/fuse
/// relations that reconstruct each root axis value from leaf loop variables
/// at lowering time.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_SCHEDULE_SCHEDULE_H
#define UNIT_SCHEDULE_SCHEDULE_H

#include "ir/ComputeOp.h"
#include "ir/ExprUtil.h"

#include <string>
#include <utility>
#include <vector>

namespace unit {

/// Loop annotation carried onto the lowered tensor-IR For node.
enum class ForKind : uint8_t {
  Serial,
  Parallel,   ///< CPU threads over this loop.
  Unrolled,   ///< Fully unrolled for ILP (paper §III.C CPU tuning).
  Vectorized, ///< SIMD fallback (non-tensorized ops).
  GpuBlockX,  ///< CUDA blockIdx.x binding.
  GpuBlockY,  ///< CUDA blockIdx.y binding.
  GpuThreadX, ///< CUDA threadIdx.x binding (split-K segments live here).
  GpuThreadY, ///< CUDA threadIdx.y binding.
};

/// Returns a printable annotation name ("parallel", "unroll", ...).
const char *forKindName(ForKind K);

/// Mutable scheduling state for one ComputeOp.
class Schedule {
public:
  /// One split record: Parent was divided into (Outer, Inner) with
  /// Inner extent == Factor. Imperfect divisions round Outer up and
  /// request a residue guard at lowering.
  struct SplitRel {
    IterVar Parent, Outer, Inner;
    int64_t Factor;
    bool NeedsGuard;
  };

  /// One fuse record: adjacent (Outer, Inner) became Fused.
  struct FuseRel {
    IterVar Outer, Inner, Fused;
    size_t SplitsBefore; ///< Splits recorded before this fuse.
  };

  /// The root axes and residue guards of one resolution (resolve).
  struct Resolution {
    VarSubst Roots; ///< Each root axis's value over the leaf values.
    /// `parent < extent` for every imperfect split, in split order.
    std::vector<ExprRef> Guards;
  };

private:
  ComputeOpRef Op;
  std::vector<IterVar> Leaves;
  std::vector<SplitRel> Splits;
  std::vector<FuseRel> Fuses;
  FlatMap<const IterVarNode *, ForKind> Annotations;
  FlatMap<const IterVarNode *, std::vector<std::pair<std::string, std::string>>>
      Pragmas;

public:
  /// Starts from the default loop nest: data-parallel axes then reduce axes.
  explicit Schedule(ComputeOpRef Op);

  const ComputeOpRef &op() const { return Op; }
  const std::vector<IterVar> &leaves() const { return Leaves; }
  const std::vector<SplitRel> &splits() const { return Splits; }

  /// Splits leaf \p IV by \p Factor; returns (outer, inner). The inner loop
  /// has extent Factor. If Factor does not divide the extent the outer loop
  /// rounds up and lowering guards the body (the `likely` clause whose
  /// branch cost hurts paper workloads #1/#4).
  std::pair<IterVar, IterVar> split(const IterVar &IV, int64_t Factor);

  /// Fuses \p Outer with the immediately following leaf \p Inner.
  IterVar fuse(const IterVar &Outer, const IterVar &Inner);

  /// Reorders the listed leaves into the given order; they occupy the same
  /// set of positions they previously held (TVM semantics). Loops not
  /// listed keep their positions.
  void reorder(const std::vector<IterVar> &Order);

  /// Annotation primitives.
  void parallel(const IterVar &IV) { annotate(IV, ForKind::Parallel); }
  void unroll(const IterVar &IV) { annotate(IV, ForKind::Unrolled); }
  void vectorize(const IterVar &IV) { annotate(IV, ForKind::Vectorized); }
  void bind(const IterVar &IV, ForKind GpuKind);
  void annotate(const IterVar &IV, ForKind K);

  /// Attaches a pragma (e.g. {"tensorize", "<intrinsic name>"}) to a leaf;
  /// lowering wraps the loop in a Pragma node (for `tensorize`, an empty
  /// one in its place, which the Replacer fills).
  void pragma(const IterVar &IV, std::string Key, std::string Value);

  /// The annotation of a leaf (Serial when unset).
  ForKind annotation(const IterVar &IV) const;

  /// Pragmas attached to a leaf (empty when none).
  const std::vector<std::pair<std::string, std::string>> &
  pragmas(const IterVar &IV) const;

  /// Reconstructs each *root* axis value, and the residue-guard predicate
  /// (`parent < extent`) of every imperfect split, as expressions over the
  /// leaf loops, in one walk over the split/fuse relations in reverse
  /// order of creation. A leaf's value is its own variable unless
  /// \p LeafValues binds it: the Replacer binds the tile-inner loops to 0
  /// to read the tile origin.
  Resolution resolve(const VarSubst &LeafValues = {}) const;

  /// True if \p IV currently is a leaf.
  bool isLeaf(const IterVar &IV) const;
};

} // namespace unit

#endif // UNIT_SCHEDULE_SCHEDULE_H
