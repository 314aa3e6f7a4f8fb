//===- bench/fig11_gpu_ablation.cpp - Paper Fig. 11 -----------------------===//
//
// GPU code-space exploration on the 16 Table I layers, normalized to the
// cuDNN Tensor Core kernel (1.0): Generic (p=2 outer-product accumulation)
// / +FuseDim (fuse H,W before padding) / +SplitK (parallelize the
// reduction) / +Tune (full search). The paper finds SplitK the largest
// single win, and #1/#15 losing to cuDNN (strided access, poor locality).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "baselines/VendorLibrary.h"
#include "core/Inspector.h"
#include "models/Table1.h"
#include "tuner/Tuner.h"

#include <algorithm>

using namespace unit;
using namespace unit::bench;

namespace {

/// Kernel seconds for one (fuse, config) choice, including the im2col
/// rearrangement pass.
double kernelSeconds(const ConvLayer &L, bool Fuse, GpuTuningConfig Config,
                     const GpuMachine &Machine) {
  TensorIntrinsicRef Wmma =
      IntrinsicRegistry::instance().lookup("wmma.m16n16k16.f16");
  LaidOutOp Laid =
      buildConvAsGemmOp(L, DataType::f16(), DataType::f32(), 16, Fuse);
  std::optional<MatchResult> Match = inspect(Laid.Op, Wmma);
  if (!Match)
    return 1e30;
  OuterLoops Loops = outerLoops(*Laid.Op, *Match);
  KernelStats Stats = foldRecipe(gpuRecipe(Loops, Config), Loops,
                                 analyzeMatch(*Laid.Op, *Match));
  double Rearrange = Laid.RearrangeBytes /
                     (Machine.DramBytesPerCycle * Machine.FreqGHz * 1e9);
  return gpuLatencySeconds(Stats, Machine) + Rearrange;
}

/// Split-K segment count for the paper's "split the reduction by 64".
int64_t splitKSegments(const ConvLayer &L) {
  int64_t ReduceElems = L.KH * L.KW * L.InC;
  return std::clamp<int64_t>(ReduceElems / 64, 1, 64);
}

} // namespace

int main() {
  printHeader("Figure 11: GPU ablation on Table I layers (vs cuDNN = 1.0)");

  GpuMachine Machine = GpuMachine::v100();
  CuDnnTensorCoreEngine CuDnn(Machine);

  Table T({"#", "cuDNN(us)", "Generic", "+FuseDim", "+SplitK", "+Tune"});
  std::vector<double> Tuned;
  int Idx = 0;
  for (const ConvLayer &L : table1Workloads()) {
    ++Idx;
    double Ref = CuDnn.convSeconds(L);
    double Generic = kernelSeconds(L, /*Fuse=*/false, {2, 1}, Machine);
    double FuseDim =
        std::min(Generic, kernelSeconds(L, /*Fuse=*/true, {2, 1}, Machine));
    double SplitK = std::min(
        FuseDim,
        std::min(kernelSeconds(L, true, {2, splitKSegments(L)}, Machine),
                 kernelSeconds(L, false, {2, splitKSegments(L)}, Machine)));
    // Full tune: every config x fusion choice.
    double Best = 1e30;
    for (bool Fuse : {false, true})
      for (const GpuTuningConfig &Config : defaultGpuTuningConfigs())
        Best = std::min(Best, kernelSeconds(L, Fuse, Config, Machine));
    Tuned.push_back(Ref / Best);
    T.addRow({std::to_string(Idx), fmtUs(Ref), fmt2(Ref / Generic),
              fmt2(Ref / FuseDim), fmt2(Ref / SplitK), fmt2(Ref / Best)});
  }
  T.addRow({"geomean", "", "", "", "", fmt2(geomean(Tuned))});
  T.print();

  std::printf("\nSplitK delivers the largest single gain on the deep-channel "
              "layers; additional tuning adds little (paper Fig. 11)\n");
  return 0;
}
