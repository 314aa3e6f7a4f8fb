//===- examples/tensorcore_gemm.cpp - GPU Tensor Core GEMM -----------------===//
//
// fp16 GEMM mapped onto wmma.m16n16k16 with the paper's GPU schedule
// (Fig. 6): block-tiled outer loops, a p x p unrolled accumulator array,
// and optional split-K reduction parallelism. Prints the tensorized IR,
// validates bit-exactness against the naive program, and sweeps the
// (p, split-K) space through the V100 performance model — a miniature of
// paper Fig. 11.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "graph/Layout.h"
#include "interp/Interp.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "tir/Lower.h"
#include "tir/TIRPrinter.h"
#include "tuner/Tuner.h"

#include <cstdio>

using namespace unit;

int main() {
  // A deep-channel bs=1 style GEMM: 208 x 512 x 1024 (Table I #8 fused).
  ComputeOpRef Big = buildGemmOp(208, 512, 1024, DataType::f16(),
                                 DataType::f32());
  TensorIntrinsicRef Wmma =
      IntrinsicRegistry::instance().lookup("wmma.m16n16k16.f16");
  std::optional<MatchResult> Match = inspect(Big, Wmma);
  if (!Match) {
    std::printf("wmma does not apply\n");
    return 1;
  }

  // Each config is priced from its loop recipe folded over the match's
  // stats: no schedule is built until one is lowered.
  GpuMachine Machine = GpuMachine::v100();
  OuterLoops Loops = outerLoops(*Big, *Match);
  KernelStats Base = analyzeMatch(*Big, *Match);
  Table T({"p", "splitK", "modeled-us"});
  for (int64_t P : {1, 2, 4})
    for (int64_t SplitK : {1, 4, 16, 64}) {
      KernelStats Stats =
          foldRecipe(gpuRecipe(Loops, {P, SplitK}), Loops, Base);
      double Us = gpuLatencySeconds(Stats, Machine) * 1e6;
      T.addRow({std::to_string(P), std::to_string(SplitK),
                formatStr("%.1f", Us)});
    }
  std::printf("== (p, split-K) sweep on the V100 model ==\n");
  T.print();
  TunedKernel Best = tuneGpu(Big, *Match, Machine);
  std::printf("tuner picks candidate #%d of %d\n\n",
              Best.BestCandidateIndex + 1, Best.CandidatesTried);

  // Functional validation on a small GEMM with the p x p schedule.
  ComputeOpRef Small =
      buildGemmOp(64, 64, 32, DataType::f16(), DataType::f32());
  std::optional<MatchResult> SmallMatch = inspect(Small, Wmma);
  TensorizePlan Plan = buildGpuPlan(Small, *SmallMatch, {2, 2});
  StmtRef TIR = lowerPlan(Plan);
  std::printf("== Tensorized IR (64x64x32, p=2, splitK=2) ==\n%s\n",
              stmtToString(TIR).c_str());

  SplitMix64 Rng(7);
  const TensorRef &A = Small->inputs()[0];
  const TensorRef &B = Small->inputs()[1];
  const TensorRef &C = Small->output();
  Buffer ABuf(A), BBuf(B), CNaive(C), CTc(C);
  ABuf.fillRandom(Rng);
  BBuf.fillRandom(Rng);

  Schedule Naive(Small);
  Interp Run1;
  Run1.bind(A, &ABuf);
  Run1.bind(B, &BBuf);
  Run1.bind(C, &CNaive);
  Run1.run(lower(Naive));

  Interp Run2;
  Run2.bind(A, &ABuf);
  Run2.bind(B, &BBuf);
  Run2.bind(C, &CTc);
  Run2.run(TIR);

  for (int64_t E = 0; E < C->numElements(); ++E) {
    if (CNaive.getFloat(E) != CTc.getFloat(E)) {
      std::printf("MISMATCH at element %lld\n", static_cast<long long>(E));
      return 1;
    }
  }
  std::printf("Tensor Core program matches the naive fp32-accumulate "
              "reference on all %lld outputs.\n",
              static_cast<long long>(C->numElements()));
  return 0;
}
