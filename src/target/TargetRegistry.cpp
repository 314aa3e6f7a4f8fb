//===- target/TargetRegistry.cpp -------------------------------------------===//

#include "target/TargetRegistry.h"

#include "core/Inspector.h"
#include "core/Isomorphism.h"
#include "graph/Executor.h"
#include "graph/Layout.h"
#include "obs/Trace.h"
#include "perf/CostModel.h"
#include "support/ErrorHandling.h"
#include "support/StringUtils.h"
#include "target/BuiltinSpecs.h"
#include "tuner/Tuner.h"

#include <algorithm>
#include <unordered_set>

using namespace unit;

TargetBackend::~TargetBackend() = default;

std::vector<TensorIntrinsicRef> TargetBackend::intrinsics() const {
  return IntrinsicRegistry::instance().forTarget(id());
}

std::string TargetBackend::conv3dKey(const Conv3dLayer &) const {
  reportFatalError(id() + " backend does not support conv3d workloads");
}

KernelReport TargetBackend::compileConv3d(const Conv3dLayer &, ThreadPool *,
                                          const CompileOptions &) const {
  reportFatalError(id() + " backend does not support conv3d workloads");
}

namespace {

/// First applicable instruction from \p Intrs against \p Op: the
/// Inspector loop of every backend's codegen, traced as core.inspect.
std::optional<MatchResult>
firstMatch(const ComputeOpRef &Op,
           const std::vector<TensorIntrinsicRef> &Intrs) {
  obs::Span Inspect("core.inspect");
  uint64_t Tried = 0;
  std::optional<MatchResult> M;
  for (const TensorIntrinsicRef &Intr : Intrs) {
    ++Tried;
    if ((M = inspect(Op, Intr)))
      break;
  }
  Inspect.annotate("tried", Tried);
  Inspect.annotate("matched", M ? M->Intrinsic->name().c_str() : "none");
  return M;
}

KernelReport reportFromTuned(const TunedKernel &Tuned,
                             const std::string &IntrName) {
  KernelReport R;
  R.Seconds = Tuned.LatencySeconds;
  R.Tensorized = true;
  R.BestCandidateIndex = Tuned.BestCandidateIndex;
  // Reports are cached, persisted, and exchanged between peers, so they
  // must stay a pure function of (workload, target, budget): the searched
  // space size qualifies, the pruned search's scored count (which varies
  // with seeding and thread timing) does not. TunedKernel keeps the
  // scored-only telemetry for in-process callers.
  R.CandidatesTried = Tuned.SpaceSize;
  R.IntrinsicName = IntrName;
  return R;
}

/// CompileOptions -> TunerOptions for one search. \p SpaceOffset /
/// \p ViewSpace translate a concatenated-enumeration seed (the GPU
/// backend's fuse-enum reports index [fused..., unfused...]) into this
/// view's local space; pass 0 / -1 for single-view backends.
TunerOptions tunerOptions(const CompileOptions &Options, int SpaceOffset = 0,
                          int ViewSpace = -1) {
  TunerOptions Opts;
  Opts.MaxCandidates = Options.MaxCandidates;
  Opts.Prune = Options.PruneSearch;
  if (Options.SeedCandidate >= 0) {
    int Local = Options.SeedCandidate - SpaceOffset;
    if (ViewSpace < 0 || (Local >= 0 && Local < ViewSpace))
      Opts.SeedCandidate = Local;
  }
  return Opts;
}

int64_t dataParallelExtent(const ComputeOpRef &Op) {
  int64_t Extent = 1;
  for (const IterVar &IV : Op->axes())
    Extent *= IV->extent();
  return Extent;
}

/// The spec's own instructions first (spec order is widest-first), then
/// any instructions user code added to the global registry under the same
/// target id — so a runtime-registered custom instruction still extends a
/// spec backend, and a revised spec's instructions shadow the stale
/// global copies dedup left behind.
std::vector<TensorIntrinsicRef> specIntrinsics(const TargetSpec &Spec) {
  std::vector<TensorIntrinsicRef> Out = Spec.Intrinsics;
  std::unordered_set<std::string> Names;
  for (const TensorIntrinsicRef &I : Out)
    Names.insert(I->name());
  for (const TensorIntrinsicRef &I :
       IntrinsicRegistry::instance().forTarget(Spec.Id))
    if (Names.insert(I->name()).second)
      Out.push_back(I);
  return Out;
}

/// The registered spec for \p TargetId with its machine block replaced.
TargetSpec specWithMachine(const std::string &TargetId, CpuMachine Machine) {
  TargetSpec Spec = TargetRegistry::instance().specFor(TargetId);
  if (Spec.Engine != TargetSpec::EngineKind::CpuDot)
    reportFatalError("target '" + TargetId + "' is not a CPU target");
  Spec.Cpu = std::move(Machine);
  return Spec;
}

TargetSpec specWithMachine(const std::string &TargetId, GpuMachine Machine) {
  TargetSpec Spec = TargetRegistry::instance().specFor(TargetId);
  if (Spec.Engine != TargetSpec::EngineKind::GpuImplicitGemm)
    reportFatalError("target '" + TargetId + "' is not a GPU target");
  Spec.Gpu = std::move(Machine);
  return Spec;
}

} // namespace

//===----------------------------------------------------------------------===//
// CpuBackend
//===----------------------------------------------------------------------===//

CpuBackend::CpuBackend(TargetSpec SpecIn) : Spec(std::move(SpecIn)) {
  Spec.validate();
  if (Spec.Engine != TargetSpec::EngineKind::CpuDot)
    reportFatalError("CpuBackend requires a CpuDot spec (target '" +
                     Spec.Id + "')");
  // The hash folds in the full machine-parameter fingerprint: two
  // machines sharing a label but differing in any latency-relevant knob
  // never share cached reports.
  Hash = Spec.hash();
  Salt = Spec.cacheSalt();
}

CpuBackend::CpuBackend(CpuMachine Machine, const std::string &TargetId)
    : CpuBackend(specWithMachine(TargetId, std::move(Machine))) {}

std::vector<TensorIntrinsicRef> CpuBackend::intrinsics() const {
  return specIntrinsics(Spec);
}

std::string CpuBackend::convKey(const ConvLayer &Layer) const {
  if (Layer.Depthwise)
    return cacheSalt() + "|dw|" + Layer.shapeKey();
  std::string Shape = Layer.shapeKey();
  {
    std::lock_guard<std::mutex> Lock(KeyMu);
    auto It = KeyMemo.find(Shape);
    if (It != KeyMemo.end())
      return It->second;
  }
  // The CPU report is a pure function of the laid-out op, so the
  // canonical key is sound here: layers whose different raw shapes pad
  // to isomorphic blocked ops share one compiled kernel.
  LaidOutOp Laid = buildDirectConvOp(Layer, Spec.Scheme.Activation,
                                     Spec.Scheme.Weight,
                                     Spec.Scheme.Accumulator,
                                     Spec.Scheme.LaneMultiple,
                                     Spec.Scheme.ReduceMultiple);
  std::string Key = cacheSalt() + "|conv|" + canonicalComputeKey(*Laid.Op);
  std::lock_guard<std::mutex> Lock(KeyMu);
  KeyMemo.emplace(std::move(Shape), Key);
  return Key;
}

KernelReport CpuBackend::compileConv(const ConvLayer &Layer, ThreadPool *Pool,
                                     const CompileOptions &Options) const {
  KernelReport Report;
  if (Layer.Depthwise) {
    // No channel reduction, so the Inspector rejects every dot
    // instruction; price the SIMD schedule directly.
    KernelStats Stats = depthwiseSimdStats(Layer, /*WideningFactor=*/1.5);
    Report.Seconds = simdLatencySeconds(Stats, Spec.Cpu);
    return Report;
  }
  LaidOutOp Laid = buildDirectConvOp(Layer, Spec.Scheme.Activation,
                                     Spec.Scheme.Weight,
                                     Spec.Scheme.Accumulator,
                                     Spec.Scheme.LaneMultiple,
                                     Spec.Scheme.ReduceMultiple);
  std::optional<MatchResult> Match = firstMatch(Laid.Op, intrinsics());
  if (!Match) {
    KernelStats Stats = analyzeSimdFallback(
        Laid.Op, /*WideningFactor=*/1.0,
        static_cast<double>(Layer.outH()) * Layer.outW());
    Report.Seconds = simdLatencySeconds(Stats, Spec.Cpu);
    return Report;
  }
  TunedKernel Tuned =
      tuneCpu(Laid.Op, *Match, Spec.Cpu, Pool, tunerOptions(Options));
  return reportFromTuned(Tuned, Match->Intrinsic->name());
}

KernelReport CpuBackend::compileOp(const ComputeOpRef &Op, ThreadPool *Pool,
                                   const CompileOptions &Options) const {
  if (std::optional<MatchResult> Match = firstMatch(Op, intrinsics())) {
    TunedKernel Tuned =
        tuneCpu(Op, *Match, Spec.Cpu, Pool, tunerOptions(Options));
    return reportFromTuned(Tuned, Match->Intrinsic->name());
  }
  KernelReport Report;
  KernelStats Stats =
      analyzeSimdFallback(Op, /*WideningFactor=*/1.0,
                          static_cast<double>(dataParallelExtent(Op)));
  Report.Seconds = simdLatencySeconds(Stats, Spec.Cpu);
  return Report;
}

std::string CpuBackend::conv3dKey(const Conv3dLayer &Layer) const {
  if (!Spec.SupportsConv3d)
    return TargetBackend::conv3dKey(Layer);
  std::string Shape = formatStr(
      "3d|c%lld.d%lld.h%lld.w%lld.k%lld.r%lld.st%lld.p%lld",
      static_cast<long long>(Layer.InC), static_cast<long long>(Layer.InD),
      static_cast<long long>(Layer.InH), static_cast<long long>(Layer.InW),
      static_cast<long long>(Layer.OutC), static_cast<long long>(Layer.K),
      static_cast<long long>(Layer.Stride),
      static_cast<long long>(Layer.Pad));
  {
    std::lock_guard<std::mutex> Lock(KeyMu);
    auto It = KeyMemo.find(Shape);
    if (It != KeyMemo.end())
      return It->second;
  }
  LaidOutOp Laid = buildDirectConv3dOp(Layer, Spec.Scheme.Activation,
                                       Spec.Scheme.Weight,
                                       Spec.Scheme.Accumulator,
                                       Spec.Scheme.LaneMultiple,
                                       Spec.Scheme.ReduceMultiple);
  std::string Key = cacheSalt() + "|conv3d|" + canonicalComputeKey(*Laid.Op);
  std::lock_guard<std::mutex> Lock(KeyMu);
  KeyMemo.emplace(std::move(Shape), Key);
  return Key;
}

KernelReport CpuBackend::compileConv3d(const Conv3dLayer &Layer,
                                       ThreadPool *Pool,
                                       const CompileOptions &Options) const {
  if (!Spec.SupportsConv3d)
    return TargetBackend::compileConv3d(Layer, Pool, Options);
  LaidOutOp Laid = buildDirectConv3dOp(Layer, Spec.Scheme.Activation,
                                       Spec.Scheme.Weight,
                                       Spec.Scheme.Accumulator,
                                       Spec.Scheme.LaneMultiple,
                                       Spec.Scheme.ReduceMultiple);
  std::optional<MatchResult> Match = firstMatch(Laid.Op, intrinsics());
  if (!Match)
    reportFatalError("conv3d failed to tensorize");
  TunedKernel Tuned =
      tuneCpu(Laid.Op, *Match, Spec.Cpu, Pool, tunerOptions(Options));
  return reportFromTuned(Tuned, Match->Intrinsic->name());
}

//===----------------------------------------------------------------------===//
// GpuBackend
//===----------------------------------------------------------------------===//

GpuBackend::GpuBackend(TargetSpec SpecIn) : Spec(std::move(SpecIn)) {
  Spec.validate();
  if (Spec.Engine != TargetSpec::EngineKind::GpuImplicitGemm)
    reportFatalError("GpuBackend requires a GpuImplicitGemm spec (target '" +
                     Spec.Id + "')");
  Hash = Spec.hash();
  Salt = Spec.cacheSalt();
}

GpuBackend::GpuBackend(GpuMachine Machine, const std::string &TargetId)
    : GpuBackend(specWithMachine(TargetId, std::move(Machine))) {}

std::vector<TensorIntrinsicRef> GpuBackend::intrinsics() const {
  return specIntrinsics(Spec);
}

std::string GpuBackend::convKey(const ConvLayer &Layer) const {
  if (Layer.Depthwise)
    return cacheSalt() + "|dw|" + Layer.shapeKey();
  // The compiled result folds in the fused *and* unfused implicit-GEMM
  // views plus their layout-rearrangement traffic, all of which the
  // padded GEMM op erases (two layers with different strides can build
  // identical GEMMs yet pay different rearrange costs) — so the key is
  // the full conv geometry, which still excludes names and therefore
  // still collapses isomorphic renamed layers.
  return cacheSalt() + "|conv+fuse-enum|" + Layer.shapeKey();
}

KernelReport GpuBackend::compileConv(const ConvLayer &Layer, ThreadPool *Pool,
                                     const CompileOptions &Options) const {
  KernelReport Report;
  if (Layer.Depthwise) {
    Report.Seconds = gpuCudaCoreConvSeconds(Layer, Spec.Gpu, /*Scale=*/1.0);
    return Report;
  }
  // Enumerate the graph-level dimension-fusion choice alongside the kernel
  // tuning space (paper §IV.B GPU tuning) and keep the best.
  std::vector<TensorIntrinsicRef> Intrs = intrinsics();
  double Best = 1e30;
  for (bool Fuse : {true, false}) {
    LaidOutOp Laid =
        buildConvAsGemmOp(Layer, Spec.Scheme.Activation,
                          Spec.Scheme.Accumulator, Spec.Scheme.LaneMultiple,
                          Fuse);
    std::optional<MatchResult> Match = firstMatch(Laid.Op, Intrs);
    if (!Match)
      continue;
    // A transfer seed indexes the concatenated enumeration; hand each
    // view the part of it that falls in its own space (the running
    // CandidatesTried is exactly this view's offset).
    TunedKernel Tuned =
        tuneGpu(Laid.Op, *Match, Spec.Gpu, Pool,
                tunerOptions(Options, Report.CandidatesTried,
                             Options.MaxCandidates));
    double Rearrange = Laid.RearrangeBytes /
                       (Spec.Gpu.DramBytesPerCycle * Spec.Gpu.FreqGHz * 1e9);
    double Total = Tuned.LatencySeconds + Rearrange;
    if (Total < Best) {
      Best = Total;
      Report.Tensorized = true;
      // Index into the concatenated [fused..., unfused...] candidate
      // enumeration, consistent with the summed CandidatesTried — an
      // index >= the fused variant's count means the unfused view won.
      Report.BestCandidateIndex =
          Report.CandidatesTried + Tuned.BestCandidateIndex;
      Report.IntrinsicName = Match->Intrinsic->name();
    }
    Report.CandidatesTried += Tuned.SpaceSize;
  }
  if (Best >= 1e30)
    Best = gpuCudaCoreConvSeconds(Layer, Spec.Gpu, 2.0);
  Report.Seconds = Best;
  return Report;
}

KernelReport GpuBackend::compileOp(const ComputeOpRef &Op, ThreadPool *Pool,
                                   const CompileOptions &Options) const {
  if (std::optional<MatchResult> Match = firstMatch(Op, intrinsics())) {
    TunedKernel Tuned =
        tuneGpu(Op, *Match, Spec.Gpu, Pool, tunerOptions(Options));
    return reportFromTuned(Tuned, Match->Intrinsic->name());
  }
  // CUDA-core fallback for untensorizable ops: roofline over total MACs
  // (the Fig. 1 no-tensor-core path, without layer-level utilization
  // detail since all we have here is the operation).
  KernelReport Report;
  double Macs = static_cast<double>(dataParallelExtent(Op));
  for (const IterVar &IV : Op->reduceAxes())
    Macs *= static_cast<double>(IV->extent());
  double MacsPerSecond = Spec.Gpu.SMs * Spec.Gpu.FmaPerCyclePerSM *
                         Spec.Gpu.FreqGHz * 1e9;
  Report.Seconds = Macs / MacsPerSecond + Spec.Gpu.KernelLaunchMicros * 1e-6;
  return Report;
}

//===----------------------------------------------------------------------===//
// TargetRegistry
//===----------------------------------------------------------------------===//

TargetRegistry &TargetRegistry::instance() {
  // Magic-static init is thread-safe; defaults are the shipped specs.
  static TargetRegistry *Registry = [] {
    auto *R = new TargetRegistry();
    for (TargetSpec &Spec : builtinTargetSpecs())
      R->registerSpec(std::move(Spec));
    return R;
  }();
  return *Registry;
}

const char *unit::specSourceName(SpecSource Source) {
  switch (Source) {
  case SpecSource::Builtin:
    return "builtin";
  case SpecSource::File:
    return "file";
  case SpecSource::Wire:
    return "wire";
  }
  return "builtin";
}

TargetBackendRef TargetRegistry::registerSpec(TargetSpec Spec,
                                              SpecSource Source) {
  Spec.validate();
  // Make the spec's instructions visible to the global inspection
  // helpers (inspectTarget, compileForTarget). Same-name entries are
  // replaced in place: the built-in specs re-register the instructions
  // registerBuiltinIntrinsics installed (identical objects in spirit),
  // and a *revised* spec's instructions must be what the global
  // registry serves too — never a stale previous revision.
  IntrinsicRegistry &Intrs = IntrinsicRegistry::instance();
  for (const TensorIntrinsicRef &I : Spec.Intrinsics)
    Intrs.addOrReplace(I);

  TargetBackendRef Backend;
  if (Spec.Engine == TargetSpec::EngineKind::CpuDot)
    Backend = std::make_shared<CpuBackend>(Spec);
  else
    Backend = std::make_shared<GpuBackend>(Spec);

  std::lock_guard<std::mutex> Lock(Mu);
  Sources.insert_or_assign(Spec.Id, Source);
  Specs.insert_or_assign(Spec.Id, std::move(Spec));
  registerBackendLocked(Backend);
  return Backend;
}

void TargetRegistry::registerBackend(TargetBackendRef Backend) {
  if (!Backend)
    reportFatalError("TargetRegistry: null backend");
  std::lock_guard<std::mutex> Lock(Mu);
  // A hand-written backend carries no spec; dropping the replaced
  // registration's spec keeps specFor()'s contract honest.
  Specs.erase(Backend->id());
  Sources.erase(Backend->id());
  registerBackendLocked(std::move(Backend));
}

void TargetRegistry::registerBackendLocked(TargetBackendRef Backend) {
  for (TargetBackendRef &B : Backends)
    if (B->id() == Backend->id()) {
      B = std::move(Backend);
      return;
    }
  Backends.push_back(std::move(Backend));
}

TargetBackendRef TargetRegistry::get(const std::string &Id) const {
  if (TargetBackendRef B = lookup(Id))
    return B;
  reportFatalError("TargetRegistry: no backend registered for '" + Id + "'");
}

TargetBackendRef TargetRegistry::lookup(const std::string &Id) const {
  std::lock_guard<std::mutex> Lock(Mu);
  for (const TargetBackendRef &B : Backends)
    if (B->id() == Id)
      return B;
  return nullptr;
}

TargetSpec TargetRegistry::specFor(const std::string &Id) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Specs.find(Id);
  if (It == Specs.end())
    reportFatalError("TargetRegistry: no spec registered for '" + Id +
                     "' (hand-written backends carry no spec)");
  return It->second;
}

bool TargetRegistry::hasSpecFor(const std::string &Id) const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Specs.count(Id) != 0;
}

SpecSource TargetRegistry::specSourceFor(const std::string &Id) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Sources.find(Id);
  return It == Sources.end() ? SpecSource::Builtin : It->second;
}

std::vector<TargetBackendRef> TargetRegistry::all() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Backends;
}
