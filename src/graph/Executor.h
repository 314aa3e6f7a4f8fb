//===- graph/Executor.h - Model execution through pluggable engines -------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end model inference accounting. An InferenceEngine prices each
/// compute layer (UNIT engines run the real Inspector/Rewriter/Tuner
/// pipeline per distinct shape; simulated vendor engines price their fixed
/// expert schedules through the same cost model); the executor sums layers,
/// glue operators, and framework dispatch overheads — the quantities behind
/// the paper's Figs. 8, 9, and 12.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_GRAPH_EXECUTOR_H
#define UNIT_GRAPH_EXECUTOR_H

#include "graph/Fusion.h"
#include "graph/Layout.h"
#include "graph/Quantize.h"
#include "runtime/CompilerSession.h"
#include "tuner/Tuner.h"

#include <memory>
#include <string>

namespace unit {

/// Prices layers of one model on one software stack.
class InferenceEngine {
public:
  virtual ~InferenceEngine();

  virtual std::string name() const = 0;
  /// Modeled seconds for one conv (or dense-as-1x1) layer.
  virtual double convSeconds(const ConvLayer &Layer) = 0;
  /// Hint that \p M's layers are about to be priced. UNIT engines submit
  /// async compile jobs for every distinct shape, so the per-layer
  /// convSeconds calls overlap graph pricing with kernel tuning instead
  /// of blocking layer by layer. Default: no-op (vendor baselines price
  /// fixed expert schedules with nothing to warm).
  virtual void prefetch(const Model &M) { (void)M; }
  /// Framework dispatch overhead per operator.
  virtual double perOpOverheadSeconds() const = 0;
  /// Fraction of elementwise epilogues fused into producing kernels.
  virtual double fusionQuality() const = 0;
  /// Streaming bandwidth for unfused glue operators (bytes/second).
  virtual double glueBytesPerSecond() const = 0;
};

/// Sums conv kernels, glue traffic, and dispatch overheads.
double modelLatencySeconds(const Model &M, InferenceEngine &Engine);

/// Streaming bandwidth the UNIT engines assume for unfused glue
/// operators on \p M.
double cpuGlueBytesPerSecond(const CpuMachine &M);
double gpuGlueBytesPerSecond(const GpuMachine &M);

/// Per-layer stats a UNIT CPU engine exposes for the ablation benches.
struct CpuLayerReport {
  double Seconds = 0;
  bool Tensorized = false;
  int BestCandidateIndex = -1;
};

/// UNIT on a CPU target (any registered CpuDot spec: "x86", "arm",
/// "x86-amx", ...). Kernels are compiled through the CompilerSession's
/// KernelCache — isomorphic layers, even across models and across the
/// engines given one session, tune once.
class UnitCpuEngine : public InferenceEngine {
  std::shared_ptr<const CpuBackend> Backend;
  std::shared_ptr<CompilerSession> Session;

public:
  /// Runs the registered target id \p Target's pipeline on \p Machine's
  /// parameters, compiling through \p Session (required, non-null).
  UnitCpuEngine(CpuMachine Machine, const std::string &Target,
                std::shared_ptr<CompilerSession> Session);

  std::string name() const override;
  double convSeconds(const ConvLayer &Layer) override;
  void prefetch(const Model &M) override;
  double perOpOverheadSeconds() const override { return 4e-6; }
  double fusionQuality() const override { return 1.0; }
  double glueBytesPerSecond() const override;

  /// Full per-layer report (tensorized? which tuning pair won?).
  CpuLayerReport convReport(const ConvLayer &Layer);
  /// Modeled seconds for a conv3d layer (paper Fig. 13).
  double conv3dSeconds(const Conv3dLayer &Layer);

  const CpuBackend &backend() const { return *Backend; }
  CompilerSession &session() { return *Session; }
};

/// UNIT on an Nvidia GPU (Tensor Core implicit-GEMM path), enumerating the
/// dimension-fusion choice alongside the kernel tuning space. Compiles
/// through the given CompilerSession like the CPU engine.
class UnitGpuEngine : public InferenceEngine {
  std::shared_ptr<const GpuBackend> Backend;
  std::shared_ptr<CompilerSession> Session;

public:
  UnitGpuEngine(GpuMachine Machine, std::shared_ptr<CompilerSession> Session);

  std::string name() const override;
  double convSeconds(const ConvLayer &Layer) override;
  void prefetch(const Model &M) override;
  double perOpOverheadSeconds() const override { return 4e-6; }
  double fusionQuality() const override { return 1.0; }
  double glueBytesPerSecond() const override;

  const GpuBackend &backend() const { return *Backend; }
  CompilerSession &session() { return *Session; }
};

/// SIMD fallback stats for a depthwise conv (no channel reduction, so the
/// Inspector rejects every dot instruction; shared with baselines).
KernelStats depthwiseSimdStats(const ConvLayer &Layer, double WideningFactor);

/// CUDA-core (non-tensor-core) conv pricing, used by UNIT's GPU fallback
/// and the cuDNN fp32/fp16 baselines of Fig. 1.
double gpuCudaCoreConvSeconds(const ConvLayer &Layer, const GpuMachine &M,
                              double MacThroughputScale);

} // namespace unit

#endif // UNIT_GRAPH_EXECUTOR_H
