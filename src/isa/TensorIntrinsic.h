//===- isa/TensorIntrinsic.h - Tensorized instruction abstraction ---------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unified semantics abstraction of paper §III.A: every tensorized
/// instruction is described as a small tensor-DSL program (a ComputeOp)
/// whose tensors stand for the instruction's registers. Integrating a new
/// instruction means registering one of these objects — no new compiler.
///
/// Instructions belong to a *target id*: a free-form string ("x86",
/// "arm-sve", ...) that names the backend consuming them. Target ids are
/// open — a new backend picks a fresh id and registers a TargetSpec
/// (target/TargetSpec.h); nothing in the compiler enumerates the set.
///
/// The attached cost numbers feed the analytic machine model that stands
/// in for real hardware in this reproduction (see DESIGN.md).
///
/// Each instruction also derives, once at construction, the lane layout of
/// every register access in its semantics: which instruction axes the
/// register's lanes vary along and with what stride. Operand generation
/// (core/OperandGen.h) and the cost model's load count
/// (perf/CostModel.h) both read these layouts instead of re-analyzing
/// the semantics per use.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_ISA_TENSORINTRINSIC_H
#define UNIT_ISA_TENSORINTRINSIC_H

#include "ir/ComputeOp.h"

#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace unit {

/// Pipeline characteristics used by the performance model.
struct IntrinsicCost {
  /// Result-to-use latency in cycles (the RAW hazard the CPU tuner hides
  /// by unrolling independent accumulators, paper §III.C).
  double LatencyCycles = 4.0;
  /// Instructions issued per cycle per core (or per SM tensor-core group).
  double IssuePerCycle = 1.0;
  /// Multiply-accumulate operations performed by one instruction.
  double MacsPerInstr = 1.0;
};

/// One instruction axis a register's lanes vary along.
struct LaneAxis {
  IterVar InstrAxis;
  int64_t LaneCoeff; ///< The axis's stride in the register's lane order.
};

/// Lane layout of one register access in an instruction's semantics (the
/// "instruction side" of the operand rules of paper §III.C.2).
struct RegisterLayout {
  const LoadNode *Load = nullptr; ///< The semantics load described.
  /// Every instruction axis the access depends on, slowest-varying first
  /// (LaneCoeff descending; ties keep the semantics' axis order).
  std::vector<LaneAxis> Axes;
  /// Product of the axes' extents: the lanes one operand vector holds.
  int64_t Lanes = 1;
};

/// One tensorized instruction: name, target id, DSL semantics, and costs.
class TensorIntrinsic {
  std::string Name;          ///< Registry key, e.g. "vnni.vpdpbusd".
  std::string LLVMIntrinsic; ///< Informational, e.g. "x86.avx512.vpdpbusd".
  std::string Target;        ///< Backend target id, e.g. "x86".
  ComputeOpRef Semantics;
  IntrinsicCost Cost;
  std::vector<RegisterLayout> Layouts; ///< One per semantics load.
  RegisterLayout OutputLayout;

public:
  /// Fatal-errors when a register access in \p Semantics is not affine in
  /// the instruction's axes (no lane layout exists).
  TensorIntrinsic(std::string Name, std::string LLVMIntrinsic,
                  std::string Target, ComputeOpRef Semantics,
                  IntrinsicCost Cost);

  const std::string &name() const { return Name; }
  const std::string &llvmIntrinsic() const { return LLVMIntrinsic; }
  const std::string &target() const { return Target; }
  const ComputeOpRef &semantics() const { return Semantics; }
  const IntrinsicCost &cost() const { return Cost; }

  /// Number of output lanes (product of data-parallel axis extents).
  int64_t outputLanes() const;
  /// Reduction width (product of reduce axis extents; 1 if none).
  int64_t reduceWidth() const;
  /// True for += instructions whose accumulator register is the output
  /// register (Tensor Core, paper Fig. 4c).
  bool accumulatesInPlace() const { return Semantics->isInPlaceUpdate(); }

  /// Lane layout of \p Load, a load node of this instruction's semantics
  /// (an OperandBinding's InstrLoad).
  const RegisterLayout &laneLayout(const LoadNode *Load) const;
  /// Lane layout of the output register: the identity access over the
  /// data-parallel axes (Load is null).
  const RegisterLayout &outputLayout() const { return OutputLayout; }
};

using TensorIntrinsicRef = std::shared_ptr<const TensorIntrinsic>;

/// Process-wide instruction registry. Built-ins (VNNI, DOT, WMMA, ...) are
/// registered lazily on first access; user code may add its own (see
/// examples/custom_intrinsic.cpp), and TargetRegistry::registerSpec adds a
/// spec's instructions automatically. Thread-safe: the CompilerSession's
/// pool consults the registry from concurrent tuning tasks.
class IntrinsicRegistry {
  mutable std::mutex Mu;
  std::vector<TensorIntrinsicRef> Intrinsics;

  IntrinsicRegistry() = default;
  TensorIntrinsicRef lookupLocked(const std::string &Name) const;

public:
  IntrinsicRegistry(const IntrinsicRegistry &) = delete;
  IntrinsicRegistry &operator=(const IntrinsicRegistry &) = delete;

  /// The singleton, with built-ins registered.
  static IntrinsicRegistry &instance();

  /// Registers \p Intrinsic; fatal-errors on duplicate names.
  void add(TensorIntrinsicRef Intrinsic);

  /// Registers \p Intrinsic, replacing any same-name entry *in place*
  /// (its position — and so the widest-first search order — is kept).
  /// TargetRegistry::registerSpec uses this so a revised spec's
  /// instructions are what every global helper sees.
  void addOrReplace(TensorIntrinsicRef Intrinsic);

  /// Finds by name; returns null when absent.
  TensorIntrinsicRef lookup(const std::string &Name) const;

  /// All instructions for one target id, registration order.
  std::vector<TensorIntrinsicRef> forTarget(const std::string &Target) const;

  /// Snapshot of every registered instruction.
  std::vector<TensorIntrinsicRef> all() const;
};

} // namespace unit

#endif // UNIT_ISA_TENSORINTRINSIC_H
