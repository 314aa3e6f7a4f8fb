//===- bench/fig13_conv3d.cpp - Paper Fig. 13 ------------------------------===//
//
// Extensibility to a new operation: resnet-18's convolutions converted to
// 3-D and fed to UNIT with *no compiler changes* — the same Inspector
// matches the 8-deep loop nest against VNNI. Normalized to a oneDNN-style
// fixed-schedule conv3d kernel (1.0); the paper reports an average 1.2x.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "core/Inspector.h"
#include "graph/Executor.h"
#include "models/ModelZoo.h"
#include "tuner/Tuner.h"
#include "target/TargetRegistry.h"

using namespace unit;
using namespace unit::bench;

int main() {
  printHeader("Figure 13: conv3d layers of res18-3d (vs oneDNN = 1.0)");

  CpuMachine Machine = CpuMachine::cascadeLake();
  QuantScheme Scheme = TargetRegistry::instance().get("x86")->scheme();

  Table T({"layer", "oneDNN(us)", "UNIT(us)", "oneDNN", "UNIT"});
  std::vector<double> Rel;
  int Idx = 0;
  std::vector<Conv3dLayer> Layers = makeResnet18Conv3d();
  // The paper plots eleven distinct layers (0..10).
  if (Layers.size() > 11)
    Layers.resize(11);
  for (const Conv3dLayer &L : Layers) {
    LaidOutOp Laid =
        buildDirectConv3dOp(L, Scheme.Activation, Scheme.Weight,
                            Scheme.Accumulator, Scheme.LaneMultiple,
                            Scheme.ReduceMultiple);
    std::vector<MatchResult> Matches = inspectTarget(Laid.Op, "x86");
    if (Matches.empty()) {
      T.addRow({std::to_string(Idx++), "no match"});
      continue;
    }
    // oneDNN-style fixed default blocking (JIT exact tails, no residue
    // guards) vs UNIT's tuned schedule, through the same cost model.
    const MatchResult &Match = Matches.front();
    OuterLoops Loops = outerLoops(*Laid.Op, Match);
    KernelStats FixedStats =
        foldRecipe(cpuRecipe(Loops, CpuTuningPair{1024, 4}), Loops,
                   analyzeMatch(*Laid.Op, Match));
    FixedStats.HasResidueGuards = false;
    double Ref = cpuLatencySeconds(FixedStats, Machine);
    double Unit = tuneCpu(Laid.Op, Match, Machine).LatencySeconds;
    Rel.push_back(Ref / Unit);
    T.addRow({std::to_string(Idx++), fmtUs(Ref), fmtUs(Unit), "1.00",
              fmt2(Ref / Unit)});
  }
  T.addRow({"gmean", "", "", "1.00", fmt2(geomean(Rel))});
  T.print();

  std::printf("\nUNIT extends to conv3d unchanged, averaging %.2fx "
              "(paper: 1.2x)\n",
              geomean(Rel));
  return 0;
}
