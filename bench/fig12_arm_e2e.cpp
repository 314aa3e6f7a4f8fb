//===- bench/fig12_arm_e2e.cpp - Paper Fig. 12 ----------------------------===//
//
// Extensibility to a new platform: ARM DOT on Graviton2. TVM-NEON (plain
// SIMD, baseline 1.0) vs TVM's manually written DOT schedules vs UNIT.
// The paper reports UNIT consistently ahead, 1.13x over TVM-Manual.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "baselines/TVMBaselines.h"
#include "models/ModelZoo.h"

using namespace unit;
using namespace unit::bench;

int main() {
  printHeader("Figure 12: ARM end-to-end, relative perf vs TVM-NEON");

  CpuMachine Machine = CpuMachine::graviton2();
  TvmNeonEngine Neon(Machine);
  TvmManualEngine Manual = makeTvmManualDot(Machine);
  UnitCpuEngine Unit(Machine, "arm", std::make_shared<CompilerSession>());

  Table T({"model", "neon(ms)", "manual(ms)", "unit(ms)", "TVM-NEON",
           "TVM-Manual", "UNIT"});
  std::vector<double> ManualRel, UnitRel, UnitOverManual;
  for (const Model &M : paperModels()) {
    double Base = modelLatencySeconds(M, Neon);
    double ManualS = modelLatencySeconds(M, Manual);
    double UnitS = modelLatencySeconds(M, Unit);
    ManualRel.push_back(Base / ManualS);
    UnitRel.push_back(Base / UnitS);
    UnitOverManual.push_back(ManualS / UnitS);
    T.addRow({M.Name, formatStr("%.2f", Base * 1e3),
              formatStr("%.2f", ManualS * 1e3),
              formatStr("%.2f", UnitS * 1e3), "1.00", fmt2(Base / ManualS),
              fmt2(Base / UnitS)});
  }
  T.addRow({"geomean", "", "", "", "1.00", fmt2(geomean(ManualRel)),
            fmt2(geomean(UnitRel))});
  T.print();

  std::printf("\nUNIT: %.2fx over TVM-NEON, %.2fx over TVM-Manual "
              "(paper: up to 15.4x over NEON, 1.13x geomean over manual)\n",
              geomean(UnitRel), geomean(UnitOverManual));
  return 0;
}
