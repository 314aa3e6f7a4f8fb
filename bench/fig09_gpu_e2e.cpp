//===- bench/fig09_gpu_e2e.cpp - Paper Fig. 9 -----------------------------===//
//
// Mixed-precision end-to-end inference (bs=1) accelerated by Tensor Cores
// on the V100 model: TVM w/ cuDNN (baseline, 1.0) vs UNIT. The paper
// reports a mean speedup of 1.75x, up to 2.2x.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "baselines/VendorLibrary.h"
#include "models/ModelZoo.h"

#include <algorithm>

using namespace unit;
using namespace unit::bench;

int main() {
  printHeader("Figure 9: GPU end-to-end, relative perf vs cuDNN (fp16 w/ TC)");

  GpuMachine Machine = GpuMachine::v100();
  CuDnnTensorCoreEngine CuDnn(Machine);
  UnitGpuEngine Unit(Machine, std::make_shared<CompilerSession>());

  Table T({"model", "cuDNN(ms)", "unit(ms)", "cuDNN", "UNIT"});
  std::vector<double> UnitRel;
  for (const Model &M : paperModels()) {
    double Base = modelLatencySeconds(M, CuDnn);
    double UnitS = modelLatencySeconds(M, Unit);
    UnitRel.push_back(Base / UnitS);
    T.addRow({M.Name, formatStr("%.2f", Base * 1e3),
              formatStr("%.2f", UnitS * 1e3), "1.00", fmt2(Base / UnitS)});
  }
  T.addRow({"geomean", "", "", "1.00", fmt2(geomean(UnitRel))});
  T.print();

  std::printf("\nUNIT speedup over cuDNN: mean %.2fx, max %.2fx "
              "(paper: 1.75x mean, 2.2x max)\n",
              geomean(UnitRel),
              *std::max_element(UnitRel.begin(), UnitRel.end()));
  return 0;
}
