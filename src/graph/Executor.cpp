//===- graph/Executor.cpp --------------------------------------------------===//

#include "graph/Executor.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

using namespace unit;

InferenceEngine::~InferenceEngine() = default;

namespace {

/// Fire-and-forget async submission of every distinct conv shape in \p M:
/// the jobs land in the session cache, so the pricing loop's per-layer
/// compiles join in-flight tuning instead of running it serially. Skipped
/// when the session is configured for strictly sequential shapes.
void prefetchModel(CompilerSession &Session, const TargetBackendRef &Backend,
                   const Model &M) {
  if (!Session.config().ParallelShapes)
    return;
  std::unordered_set<std::string> Seen;
  for (const ConvLayer &L : M.Convs)
    if (Seen.insert(L.shapeKey()).second)
      Session.compileAsync({Workload::conv2d(L), Backend});
}

} // namespace

double unit::modelLatencySeconds(const Model &M, InferenceEngine &Engine) {
  Engine.prefetch(M);
  double Total = 0.0;
  for (const ConvLayer &L : M.Convs)
    Total += Engine.convSeconds(L) + Engine.perOpOverheadSeconds();

  FusionPlan Fused = fuseElementwise(M, Engine.fusionQuality());
  Total += Fused.RemainingGlueOps * Engine.perOpOverheadSeconds();
  Total += elementwiseLatencySeconds(2.0 * Fused.RemainingElementwiseBytes,
                                     0.0, Engine.glueBytesPerSecond());
  return Total;
}

KernelStats unit::depthwiseSimdStats(const ConvLayer &Layer,
                                     double WideningFactor) {
  KernelStats Stats;
  Stats.SimdMacs = Layer.macs();
  Stats.SimdElemBytes = 1.0;
  Stats.WideningFactor = WideningFactor;
  Stats.ParallelExtent =
      static_cast<double>(Layer.outH()) * static_cast<double>(Layer.OutC);
  double OutBytes = static_cast<double>(Layer.outH()) * Layer.outW() *
                    Layer.OutC * 4.0;
  Stats.OutputBytes = OutBytes;
  Stats.InputBytes =
      static_cast<double>(Layer.InH) * Layer.InW * Layer.InC;
  Stats.WeightBytes = static_cast<double>(Layer.KH) * Layer.KW * Layer.OutC;
  return Stats;
}

double unit::gpuCudaCoreConvSeconds(const ConvLayer &Layer,
                                    const GpuMachine &M,
                                    double MacThroughputScale) {
  double Macs = Layer.macs();
  double MacsPerSecond =
      M.SMs * M.FmaPerCyclePerSM * M.FreqGHz * 1e9 * MacThroughputScale;
  // bs=1 convolutions rarely saturate the CUDA cores; cap utilization by
  // the available spatial parallelism.
  double Blocks = std::max(
      1.0, static_cast<double>(Layer.outH()) * Layer.outW() / 64.0);
  double Utilization = std::min(1.0, Blocks * 4.0 / M.SMs);
  double ComputeSeconds = Macs / (MacsPerSecond * std::max(0.05, Utilization));
  double Bytes = static_cast<double>(Layer.InH) * Layer.InW * Layer.InC * 4 +
                 static_cast<double>(Layer.KH) * Layer.KW * Layer.InC *
                     Layer.OutC * 4 +
                 static_cast<double>(Layer.outH()) * Layer.outW() *
                     Layer.OutC * 8;
  double MemSeconds = Bytes / (M.DramBytesPerCycle * M.FreqGHz * 1e9);
  return std::max(ComputeSeconds, MemSeconds) +
         M.KernelLaunchMicros * 1e-6;
}

//===----------------------------------------------------------------------===//
// UnitCpuEngine
//===----------------------------------------------------------------------===//

UnitCpuEngine::UnitCpuEngine(CpuMachine MachineIn, const std::string &TargetIn,
                             std::shared_ptr<CompilerSession> SessionIn)
    : Backend(std::make_shared<CpuBackend>(std::move(MachineIn), TargetIn)),
      Session(std::move(SessionIn)) {
  assert(Session && "engine constructed without a session");
}

std::string UnitCpuEngine::name() const {
  return "UNIT (" + Backend->id() + ")";
}

double unit::cpuGlueBytesPerSecond(const CpuMachine &M) {
  return M.DramBytesPerCycle * M.FreqGHz * 1e9;
}

double unit::gpuGlueBytesPerSecond(const GpuMachine &M) {
  return M.DramBytesPerCycle * M.FreqGHz * 1e9;
}

double UnitCpuEngine::glueBytesPerSecond() const {
  return cpuGlueBytesPerSecond(Backend->machine());
}

CpuLayerReport UnitCpuEngine::convReport(const ConvLayer &Layer) {
  KernelReport R =
      Session->compile(CompileRequest(Workload::conv2d(Layer), Backend));
  CpuLayerReport Report;
  Report.Seconds = R.Seconds;
  Report.Tensorized = R.Tensorized;
  Report.BestCandidateIndex = R.BestCandidateIndex;
  return Report;
}

double UnitCpuEngine::convSeconds(const ConvLayer &Layer) {
  return Session->compile(CompileRequest(Workload::conv2d(Layer), Backend))
      .Seconds;
}

void UnitCpuEngine::prefetch(const Model &M) {
  prefetchModel(*Session, Backend, M);
}

double UnitCpuEngine::conv3dSeconds(const Conv3dLayer &Layer) {
  return Session->compile(CompileRequest(Workload::conv3d(Layer), Backend))
      .Seconds;
}

//===----------------------------------------------------------------------===//
// UnitGpuEngine
//===----------------------------------------------------------------------===//

UnitGpuEngine::UnitGpuEngine(GpuMachine MachineIn,
                             std::shared_ptr<CompilerSession> SessionIn)
    : Backend(std::make_shared<GpuBackend>(std::move(MachineIn))),
      Session(std::move(SessionIn)) {
  assert(Session && "engine constructed without a session");
}

std::string UnitGpuEngine::name() const { return "UNIT (tensor core)"; }

double UnitGpuEngine::glueBytesPerSecond() const {
  return gpuGlueBytesPerSecond(Backend->machine());
}

double UnitGpuEngine::convSeconds(const ConvLayer &Layer) {
  return Session->compile(CompileRequest(Workload::conv2d(Layer), Backend))
      .Seconds;
}

void UnitGpuEngine::prefetch(const Model &M) {
  prefetchModel(*Session, Backend, M);
}
