//===- baselines/VendorLibrary.cpp -----------------------------------------===//

#include "baselines/VendorLibrary.h"

#include "core/Inspector.h"
#include "models/ModelZoo.h"
#include "target/TargetRegistry.h"

#include <algorithm>

using namespace unit;

//===----------------------------------------------------------------------===//
// OneDnnEngine
//===----------------------------------------------------------------------===//

OneDnnEngine::OneDnnEngine(CpuMachine MachineIn)
    : Machine(std::move(MachineIn)),
      Scheme(TargetRegistry::instance().get("x86")->scheme()) {
  // The shapes oneDNN engineers hand-optimized: the resnet-50 family's
  // convolutions (paper §VI.A: "resnet50 and resnet50b, which were heavily
  // tuned by oneDNN engineers").
  for (const Model &M : {makeResnet50(), makeResnet50V1b()})
    for (const ConvLayer &L : M.Convs)
      ExpertShapes.insert(L.shapeKey());
}

double OneDnnEngine::glueBytesPerSecond() const {
  return Machine.DramBytesPerCycle * Machine.FreqGHz * 1e9;
}

double OneDnnEngine::convSeconds(const ConvLayer &Layer) {
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
    std::vector<MatchResult> Matches = inspectTarget(Laid.Op, "x86");
    if (Matches.empty()) {
      KernelStats Stats = analyzeSimdFallback(
          Laid.Op, 1.0, static_cast<double>(Layer.outH()) * Layer.outW());
      Seconds = simdLatencySeconds(Stats, Machine);
    } else if (ExpertShapes.count(Key)) {
      // Hand-tuned kernel: the engineers searched the space offline, and
      // the JIT emits exact-width tail code instead of residue guards.
      TunedKernel Tuned = tuneCpu(Laid.Op, Matches.front(), Machine);
      KernelStats Stats = Tuned.Stats;
      Stats.HasResidueGuards = false;
      Seconds = cpuLatencySeconds(Stats, Machine);
    } else {
      // Library default blocking: moderate unrolling, fine-grained
      // parallel chunks. The JIT's exact-width tails mean imperfect
      // shapes cost padding but no in-loop branches — the edge the paper
      // observes on workloads #1 and #4.
      const MatchResult &Match = Matches.front();
      OuterLoops Loops = outerLoops(*Laid.Op, Match);
      KernelStats Stats = foldRecipe(cpuRecipe(Loops, CpuTuningPair{1024, 4}),
                                     Loops, analyzeMatch(*Laid.Op, Match));
      Stats.HasResidueGuards = false;
      Seconds = cpuLatencySeconds(Stats, Machine);
    }
  }
  Cache[Key] = Seconds;
  return Seconds;
}

//===----------------------------------------------------------------------===//
// cuDNN engines
//===----------------------------------------------------------------------===//

double CuDnnFp32Engine::glueBytesPerSecond() const {
  return Machine.DramBytesPerCycle * Machine.FreqGHz * 1e9;
}

double CuDnnFp32Engine::convSeconds(const ConvLayer &Layer) {
  return gpuCudaCoreConvSeconds(Layer, Machine, /*Scale=*/1.0);
}

double CuDnnFp16NoTcEngine::glueBytesPerSecond() const {
  return Machine.DramBytesPerCycle * Machine.FreqGHz * 1e9;
}

double CuDnnFp16NoTcEngine::convSeconds(const ConvLayer &Layer) {
  // Without Tensor Cores the library's fp16 path still computes through
  // the fp32 pipeline (accumulation stays fp32), so the kernels gain
  // nothing for bs=1...
  double Kernel = gpuCudaCoreConvSeconds(Layer, Machine, /*Scale=*/1.0);
  // ...while every operator boundary pays fp32<->fp16 cast passes plus
  // their launches (the slowdown Fig. 1 demonstrates).
  double ActivationBytes =
      static_cast<double>(Layer.InH) * Layer.InW * Layer.InC * 4.0 +
      static_cast<double>(Layer.outH()) * Layer.outW() * Layer.OutC * 4.0;
  double BytesPerSecond = Machine.DramBytesPerCycle * Machine.FreqGHz * 1e9;
  double CastSeconds = elementwiseLatencySeconds(
      1.5 * ActivationBytes, 2.0 * Machine.KernelLaunchMicros * 1e-6,
      BytesPerSecond);
  return Kernel + CastSeconds;
}

double CuDnnTensorCoreEngine::glueBytesPerSecond() const {
  return Machine.DramBytesPerCycle * Machine.FreqGHz * 1e9;
}

double CuDnnTensorCoreEngine::convSeconds(const ConvLayer &Layer) {
  std::string Key = Layer.shapeKey();
  auto It = Cache.find(Key);
  if (It != Cache.end())
    return It->second;

  double Seconds;
  if (Layer.Depthwise) {
    Seconds = gpuCudaCoreConvSeconds(Layer, Machine, 1.35);
  } else {
    // Fixed implicit-GEMM schedule: per-dimension padding (no dimension
    // fusion), p=2 accumulation, no reduction splitting.
    TensorIntrinsicRef Wmma =
        IntrinsicRegistry::instance().lookup("wmma.m16n16k16.f16");
    LaidOutOp Laid = buildConvAsGemmOp(Layer, DataType::f16(),
                                       DataType::f32(), 16,
                                       /*FuseSpatial=*/false);
    std::optional<MatchResult> Match = inspect(Laid.Op, Wmma);
    if (Match) {
      OuterLoops Loops = outerLoops(*Laid.Op, *Match);
      KernelStats Stats = foldRecipe(gpuRecipe(Loops, GpuTuningConfig{2, 1}),
                                     Loops, analyzeMatch(*Laid.Op, *Match));
      // Hand-scheduled SASS pipelines run a little leaner than compiled
      // kernels of the same schedule shape.
      Seconds = 0.85 * gpuLatencySeconds(Stats, Machine);
    } else {
      Seconds = gpuCudaCoreConvSeconds(Layer, Machine, 1.35);
    }
  }
  Cache[Key] = Seconds;
  return Seconds;
}
