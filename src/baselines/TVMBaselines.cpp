//===- baselines/TVMBaselines.cpp ------------------------------------------===//

#include "baselines/TVMBaselines.h"

#include "core/Inspector.h"
#include "target/TargetRegistry.h"

#include <algorithm>

using namespace unit;

TvmManualEngine::TvmManualEngine(CpuMachine MachineIn,
                                 const std::string &TargetIn,
                                 CpuTuningPair FixedPairIn,
                                 bool SpatialUnrollIn)
    : Machine(std::move(MachineIn)), Target(TargetIn),
      Scheme(TargetRegistry::instance().get(TargetIn)->scheme()),
      FixedPair(FixedPairIn), SpatialUnroll(SpatialUnrollIn) {}

LoopRecipe TvmManualEngine::recipe(const ComputeOp &Op,
                                   const MatchResult &Match,
                                   const OuterLoops &Loops) const {
  if (!SpatialUnroll)
    return cpuRecipe(Loops, FixedPair);
  // The hand-written x86 schedule unrolls the output-width loop `y` by a
  // fixed factor (reg_n in TVM's int8 conv templates): the outer loop
  // that keeps the name, i.e. the first unmapped data-parallel axis `y`.
  // Widths that do not divide the factor inherit `likely` residue guards
  // — the per-shape rigidity UNIT's tuner avoids (paper §VI.A's 1.18x).
  LoopRecipe R;
  const std::vector<IterVar> &Axes = Op.axes();
  for (size_t I = 0; I < Axes.size(); ++I) {
    if (Axes[I]->name() != "y" || Match.Mapping.instrAxisFor(Axes[I].get()))
      continue;
    int64_t Factor = std::min(FixedPair.UnrollFactor, Loops.Dp[I]);
    if (Factor > 1)
      R.addSplit(LoopRecipe::SplitRole::UnrollTile, I, Factor);
    break;
  }
  R.fuseParallelPrefix(Loops, FixedPair.ParallelLimit);
  return R;
}

std::string TvmManualEngine::name() const {
  return "TVM-Manual (" + Target + ")";
}

double TvmManualEngine::glueBytesPerSecond() const {
  return Machine.DramBytesPerCycle * Machine.FreqGHz * 1e9;
}

double TvmManualEngine::convSeconds(const ConvLayer &Layer) {
  std::string Key = Layer.shapeKey();
  auto It = Cache.find(Key);
  if (It != Cache.end())
    return It->second;

  double Seconds;
  if (Layer.Depthwise) {
    KernelStats Stats = depthwiseSimdStats(Layer, /*WideningFactor=*/1.5);
    Seconds = simdLatencySeconds(Stats, Machine);
  } else {
    LaidOutOp Laid =
        buildDirectConvOp(Layer, Scheme.Activation, Scheme.Weight,
                          Scheme.Accumulator, Scheme.LaneMultiple,
                          Scheme.ReduceMultiple);
    std::vector<MatchResult> Matches = inspectTarget(Laid.Op, Target);
    if (Matches.empty()) {
      KernelStats Stats = analyzeSimdFallback(
          Laid.Op, 1.0, static_cast<double>(Layer.outH()) * Layer.outW());
      Seconds = simdLatencySeconds(Stats, Machine);
    } else {
      // One fixed manually-chosen blocking for every shape.
      const MatchResult &Match = Matches.front();
      OuterLoops Loops = outerLoops(*Laid.Op, Match);
      KernelStats Stats = foldRecipe(recipe(*Laid.Op, Match, Loops), Loops,
                                     analyzeMatch(*Laid.Op, Match));
      Seconds = cpuLatencySeconds(Stats, Machine);
    }
  }
  Cache[Key] = Seconds;
  return Seconds;
}

TvmNeonEngine::TvmNeonEngine(CpuMachine MachineIn)
    : Machine(std::move(MachineIn)) {}

double TvmNeonEngine::glueBytesPerSecond() const {
  return Machine.DramBytesPerCycle * Machine.FreqGHz * 1e9;
}

double TvmNeonEngine::convSeconds(const ConvLayer &Layer) {
  std::string Key = Layer.shapeKey();
  auto It = Cache.find(Key);
  if (It != Cache.end())
    return It->second;

  double Seconds;
  if (Layer.Depthwise) {
    KernelStats Stats = depthwiseSimdStats(Layer, /*WideningFactor=*/3.0);
    Seconds = simdLatencySeconds(Stats, Machine);
  } else {
    // Plain NEON int8: every MAC pays the widening chain; the fixed
    // schedule parallelizes the spatial loops only.
    QuantScheme Scheme = TargetRegistry::instance().get("arm")->scheme();
    LaidOutOp Laid =
        buildDirectConvOp(Layer, Scheme.Activation, Scheme.Weight,
                          Scheme.Accumulator, /*LaneMultiple=*/4,
                          /*ReduceMultiple=*/4);
    // The fixed NEON schedule parallelizes output rows only, starving the
    // 32 cores on late small-spatial layers, and it has no register-tiled
    // kernel for 1x1 convolutions at all — mobilenets, nearly all 1x1,
    // are where Fig. 12's >10x gaps come from.
    double Widening = Machine.WideningFactorNoDot;
    if (Layer.KH == 1 && Layer.KW == 1)
      Widening *= 2.0;
    KernelStats Stats = analyzeSimdFallback(
        Laid.Op, Widening, static_cast<double>(Layer.outH()));
    Seconds = simdLatencySeconds(Stats, Machine);
  }
  Cache[Key] = Seconds;
  return Seconds;
}

TvmManualEngine unit::makeTvmManualVnni(const CpuMachine &Machine) {
  // The TVM x86 int8 schedule's fixed blocking, OW-unrolled.
  return TvmManualEngine(Machine, "x86", CpuTuningPair{3000, 8},
                         /*SpatialUnroll=*/true);
}

TvmManualEngine unit::makeTvmManualDot(const CpuMachine &Machine) {
  // The ARM DOT schedule was carefully tuned (paper: UNIT wins by just
  // 1.13x geomean): output-channel unrolling, guard-free, with a slightly
  // conservative parallel granularity.
  return TvmManualEngine(Machine, "arm", CpuTuningPair{512, 8},
                         /*SpatialUnroll=*/false);
}
