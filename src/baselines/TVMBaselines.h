//===- baselines/TVMBaselines.h - Simulated TVM baselines ------------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The TVM-side baselines of paper §V.B: hand-written tensorize schedules
/// for Intel VNNI and ARM DOT ("involve heavy engineering effort to
/// carefully write intrinsics"), and plain NEON SIMD code generation with
/// no dot-product instruction at all (Fig. 12's TVM-NEON baseline). All
/// share the TVM graph runtime's light dispatch and operator fusion.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_BASELINES_TVMBASELINES_H
#define UNIT_BASELINES_TVMBASELINES_H

#include "graph/Executor.h"

namespace unit {

/// TVM with a manually written tensorized schedule: one fixed blocking
/// chosen by its author, applied to every shape.
class TvmManualEngine : public InferenceEngine {
  CpuMachine Machine;
  std::string Target;
  QuantScheme Scheme;
  CpuTuningPair FixedPair;
  /// x86 template style: unroll the spatial OW loop (residue guards on odd
  /// widths). The ARM DOT schedule was written later and more carefully
  /// (paper: "carefully manual tuned"), unrolling output channels instead.
  bool SpatialUnroll;
  std::map<std::string, double> Cache;

public:
  TvmManualEngine(CpuMachine Machine, const std::string &Target,
                  CpuTuningPair FixedPair, bool SpatialUnroll);

  /// The fixed schedule this engine applies to \p Op, as a loop recipe
  /// over \p Loops = outerLoops(Op, Match). convSeconds folds it; nothing
  /// builds it.
  LoopRecipe recipe(const ComputeOp &Op, const MatchResult &Match,
                    const OuterLoops &Loops) const;

  std::string name() const override;
  double convSeconds(const ConvLayer &Layer) override;
  double perOpOverheadSeconds() const override { return 4e-6; }
  double fusionQuality() const override { return 1.0; }
  double glueBytesPerSecond() const override;
};

/// TVM emitting plain NEON (no DOT extension): int8 MACs pay widening
/// multiply-accumulate chains, with a fixed schedule.
class TvmNeonEngine : public InferenceEngine {
  CpuMachine Machine;
  std::map<std::string, double> Cache;

public:
  explicit TvmNeonEngine(CpuMachine Machine);

  std::string name() const override { return "TVM-NEON"; }
  double convSeconds(const ConvLayer &Layer) override;
  double perOpOverheadSeconds() const override { return 4e-6; }
  double fusionQuality() const override { return 1.0; }
  double glueBytesPerSecond() const override;
};

/// The paper's TVM x86 baseline: manual VNNI schedules.
TvmManualEngine makeTvmManualVnni(const CpuMachine &Machine);
/// The paper's TVM-Manual ARM baseline: manual DOT schedules.
TvmManualEngine makeTvmManualDot(const CpuMachine &Machine);

} // namespace unit

#endif // UNIT_BASELINES_TVMBASELINES_H
