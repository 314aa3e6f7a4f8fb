//===- bench/fig08_cpu_e2e.cpp - Paper Fig. 8 -----------------------------===//
//
// Quantized end-to-end inference (bs=1) accelerated by Intel VNNI on the
// Cascade Lake model: MXNet w/ oneDNN (baseline, 1.0) vs TVM's manual VNNI
// schedules vs UNIT. The paper reports UNIT at 1.3x geomean over
// MXNet-oneDNN and 1.18x over TVM.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "baselines/TVMBaselines.h"
#include "baselines/VendorLibrary.h"
#include "models/ModelZoo.h"

using namespace unit;
using namespace unit::bench;

int main() {
  printHeader("Figure 8: CPU end-to-end, relative perf vs MXNet w/ oneDNN");

  CpuMachine Machine = CpuMachine::cascadeLake();
  MxnetOneDnnEngine Mxnet(Machine);
  TvmManualEngine Tvm = makeTvmManualVnni(Machine);
  UnitCpuEngine Unit(Machine, "x86", std::make_shared<CompilerSession>());

  Table T({"model", "mxnet+oneDNN(ms)", "tvm(ms)", "unit(ms)",
           "MXNet w/ oneDNN", "TVM", "UNIT"});
  std::vector<double> TvmRel, UnitRel, UnitOverTvm;
  for (const Model &M : paperModels()) {
    double Base = modelLatencySeconds(M, Mxnet);
    double TvmS = modelLatencySeconds(M, Tvm);
    double UnitS = modelLatencySeconds(M, Unit);
    TvmRel.push_back(Base / TvmS);
    UnitRel.push_back(Base / UnitS);
    UnitOverTvm.push_back(TvmS / UnitS);
    T.addRow({M.Name, formatStr("%.2f", Base * 1e3),
              formatStr("%.2f", TvmS * 1e3), formatStr("%.2f", UnitS * 1e3),
              "1.00", fmt2(Base / TvmS), fmt2(Base / UnitS)});
  }
  T.addRow({"geomean", "", "", "", "1.00", fmt2(geomean(TvmRel)),
            fmt2(geomean(UnitRel))});
  T.print();

  std::printf("\nUNIT speedup: %.2fx over MXNet-oneDNN (paper: 1.3x), "
              "%.2fx over TVM (paper: 1.18x)\n",
              geomean(UnitRel), geomean(UnitOverTvm));
  return 0;
}
