//===- perfbench/common.cpp - Spans, statistics, replays, gate ------------===//

#include "bench.h"

#include "core/Isomorphism.h"
#include "core/Pipeline.h"
#include "core/Replacer.h"
#include "tir/Lower.h"
#include "tir/Verify.h"
#include "graph/Layout.h"
#include "interp/Interp.h"
#include "runtime/Workload.h"
#include "server/Protocol.h"
#include "target/SpecFile.h"
#include "tir/StmtVisitor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include <sys/resource.h>
#include <unistd.h>

namespace pb {

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

SpanLog &SpanLog::get() {
  static SpanLog Log;
  return Log;
}

int SpanLog::open(const char *Name) {
  SpanRecord R;
  R.Name = Name;
  R.Parent = Open.empty() ? -1 : Open.back();
  R.Request = Request;
  R.StartNs = nowNs();
  Spans.push_back(R);
  Open.push_back(static_cast<int>(Spans.size() - 1));
  return Open.back();
}

void SpanLog::close(int Index) {
  Spans[static_cast<size_t>(Index)].DurNs =
      nowNs() - Spans[static_cast<size_t>(Index)].StartNs;
  Open.pop_back();
}

double SpanLog::meanUs(const std::string &Name) const {
  double Sum = 0;
  size_t N = 0;
  for (const SpanRecord &S : Spans)
    if (Name == S.Name) {
      Sum += static_cast<double>(S.DurNs);
      ++N;
    }
  return N ? Sum / static_cast<double>(N) / 1e3 : 0.0;
}

size_t SpanLog::count(const std::string &Name) const {
  size_t N = 0;
  for (const SpanRecord &S : Spans)
    N += Name == S.Name;
  return N;
}

std::map<std::string, double> SpanLog::selfMsByModule() const {
  std::vector<int64_t> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] = Spans[I].DurNs;
  for (const SpanRecord &S : Spans)
    if (S.Parent >= 0)
      Self[static_cast<size_t>(S.Parent)] -= S.DurNs;
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    std::string Name = Spans[I].Name;
    Out[Name.substr(0, Name.find('.'))] += static_cast<double>(Self[I]) / 1e6;
  }
  return Out;
}

bool SpanLog::writeChromeTrace(const std::string &Path) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  int64_t Epoch = Spans.empty() ? 0 : Spans.front().StartNs;
  std::fprintf(F, "{\"traceEvents\":[");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    std::fprintf(F,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"request\":%llu}}",
                 I ? "," : "", S.Name,
                 static_cast<double>(S.StartNs - Epoch) / 1e3,
                 static_cast<double>(S.DurNs) / 1e3, I, S.Parent,
                 static_cast<unsigned long long>(S.Request));
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double Pos = Q * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] * (1 - Frac) + Values[Hi] * Frac;
}

double median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}

double geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double LogSum = 0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

double peakRssMb() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

double modeledGops(const ConvLayer &Layer, const KernelReport &Report) {
  return 2.0 * Layer.macs() / Report.Seconds / 1e9;
}

bool sameReport(const KernelReport &A, const KernelReport &B) {
  return A.Seconds == B.Seconds && A.Tensorized == B.Tensorized &&
         A.BestCandidateIndex == B.BestCandidateIndex &&
         A.CandidatesTried == B.CandidatesTried &&
         A.IntrinsicName == B.IntrinsicName;
}

//===----------------------------------------------------------------------===//
// Targets and winners
//===----------------------------------------------------------------------===//

namespace {
std::vector<std::string> RegisteredIds;
} // namespace

const std::vector<std::string> &benchTargetIds() { return RegisteredIds; }

std::vector<std::string> registerBenchTargets() {
  std::vector<std::string> Ids = {"x86", "arm", "nvgpu", "x86-amx",
                                  "arm-sve"};
  TargetRegistry &Registry = TargetRegistry::instance();
  for (const std::string &Id : Ids)
    Registry.registerSpec(Registry.specFor(Id), SpecSource::Builtin);
  for (const char *File :
       {"specs/fixed16-dma.json", "specs/nvgpu-wmma-s8.json"}) {
    std::string Err;
    TargetBackendRef Backend = registerSpecFile(File, &Err);
    if (!Backend) {
      std::fprintf(stderr, "perfbench: cannot register %s: %s\n", File,
                   Err.c_str());
      std::exit(2);
    }
    Ids.push_back(Backend->id());
  }
  RegisteredIds = Ids;
  return Ids;
}

namespace {

bool isGpu(const TargetSpec &Spec) {
  return Spec.Engine == TargetSpec::EngineKind::GpuImplicitGemm;
}

LaidOutOp layOut(const TargetSpec &Spec, const ConvLayer &Layer, bool Fuse) {
  const QuantScheme &S = Spec.Scheme;
  if (isGpu(Spec))
    return buildConvAsGemmOp(Layer, S.Activation, S.Accumulator,
                             S.LaneMultiple, Fuse);
  return buildDirectConvOp(Layer, S.Activation, S.Weight, S.Accumulator,
                           S.LaneMultiple, S.ReduceMultiple);
}

/// The backend's instruction choice: the first instruction, in target
/// order, the Inspector matches. With \p Calls (the cold-path replay),
/// counts and spans every inspect() call.
std::optional<MatchResult> firstMatch(const ComputeOpRef &Op,
                                      const std::vector<TensorIntrinsicRef> &Intrs,
                                      size_t *Calls = nullptr) {
  for (const TensorIntrinsicRef &Intr : Intrs) {
    if (!Calls) {
      if (std::optional<MatchResult> M = inspect(Op, Intr))
        return M;
      continue;
    }
    ++*Calls;
    Span S("core.inspect");
    if (std::optional<MatchResult> M = inspect(Op, Intr))
      return M;
  }
  return std::nullopt;
}

/// The implicit-GEMM views a GPU backend enumerates, fused first; a CPU
/// target has the one direct-conv view.
std::vector<bool> viewsOf(const TargetSpec &Spec) {
  return isGpu(Spec) ? std::vector<bool>{true, false}
                     : std::vector<bool>{false};
}

size_t InspectCalls = 0, InspectMatches = 0;

} // namespace

std::optional<LaidKernel> winnerOf(const std::string &Target,
                                   const ConvLayer &Layer,
                                   const KernelReport &Report) {
  if (!Report.Tensorized || Report.BestCandidateIndex < 0)
    return std::nullopt;
  TargetSpec Spec = TargetRegistry::instance().specFor(Target);
  std::vector<TensorIntrinsicRef> Intrs =
      TargetRegistry::instance().get(Target)->intrinsics();
  // GPU reports index the concatenated [fused..., unfused...] space.
  int Offset = 0;
  for (bool Fuse : viewsOf(Spec)) {
    LaidOutOp Laid = layOut(Spec, Layer, Fuse);
    std::optional<MatchResult> Match = firstMatch(Laid.Op, Intrs);
    if (!Match)
      continue;
    int Local = Report.BestCandidateIndex - Offset;
    LaidKernel K;
    K.Op = Laid.Op;
    K.Match = *Match;
    K.Gpu = isGpu(Spec);
    if (K.Gpu) {
      std::vector<GpuTuningConfig> Configs = defaultGpuTuningConfigs();
      int Space = static_cast<int>(Configs.size());
      if (Local >= Space) {
        Offset += Space;
        continue;
      }
      K.Config = Configs[static_cast<size_t>(Local)];
    } else {
      std::vector<CpuTuningPair> Pairs = defaultCpuTuningPairs();
      if (Local >= static_cast<int>(Pairs.size()))
        return std::nullopt;
      K.Pair = Pairs[static_cast<size_t>(Local)];
    }
    return K;
  }
  return std::nullopt;
}

TensorizePlan buildWinnerPlan(const LaidKernel &K) {
  return K.Gpu ? buildGpuPlan(K.Op, K.Match, K.Config)
               : buildCpuPlan(K.Op, K.Match, K.Pair);
}

size_t countStmts(const StmtRef &S) {
  struct Counter : StmtVisitor {
    size_t N = 0;
    void visitFor(const ForNode *Node) override {
      ++N;
      StmtVisitor::visitFor(Node);
    }
    void visitStore(const StoreNode *Node) override {
      ++N;
      StmtVisitor::visitStore(Node);
    }
    void visitSeq(const SeqNode *Node) override { StmtVisitor::visitSeq(Node); }
    void visitIfThenElse(const IfThenElseNode *Node) override {
      ++N;
      StmtVisitor::visitIfThenElse(Node);
    }
    void visitPragma(const PragmaNode *Node) override {
      ++N;
      StmtVisitor::visitPragma(Node);
    }
    void visitEvaluate(const EvaluateNode *Node) override {
      ++N;
      StmtVisitor::visitEvaluate(Node);
    }
  } C;
  C.visit(S);
  return C.N;
}

//===----------------------------------------------------------------------===//
// Transfer index mirror
//===----------------------------------------------------------------------===//

namespace {

/// CompilerSession's split of a cache key into `target|spechash|kind|`
/// and the body the distance is taken over.
bool splitKey(const std::string &Key, std::string &Group, std::string &Body) {
  size_t Pos = 0;
  for (int Sep = 0; Sep < 3; ++Sep) {
    Pos = Key.find('|', Pos);
    if (Pos == std::string::npos)
      return false;
    ++Pos;
  }
  Group = Key.substr(0, Pos);
  Body = Key.substr(Pos);
  return true;
}

constexpr size_t TransferGroupCap = 512;

} // namespace

void TransferMirror::record(const std::string &Key,
                            const KernelReport &Report) {
  std::string Group, Body;
  if (Report.BestCandidateIndex < 0 || !splitKey(Key, Group, Body))
    return;
  std::map<std::string, int> &G = Groups[Group];
  if (G.size() >= TransferGroupCap && !G.count(Body))
    return;
  G[Body] = Report.BestCandidateIndex;
}

size_t TransferMirror::scanLength(const std::string &Key) const {
  std::string Group, Body;
  if (!splitKey(Key, Group, Body))
    return 0;
  auto It = Groups.find(Group);
  return It == Groups.end() ? 0 : It->second.size();
}

int TransferMirror::replayScan(const std::string &Key, bool Timed) const {
  std::string Group, Body;
  if (!splitKey(Key, Group, Body))
    return -1;
  auto It = Groups.find(Group);
  if (It == Groups.end())
    return -1;
  size_t Cutoff = std::max<size_t>(8, Body.size() / 10);
  size_t Best = Cutoff + 1;
  int Seed = -1;
  for (const auto &[Neighbor, Winner] : It->second) {
    size_t D;
    if (Timed) {
      Span S("core.structural_distance");
      D = structuralDistance(Body, Neighbor, Cutoff);
    } else {
      D = structuralDistance(Body, Neighbor, Cutoff);
    }
    if (D < Best) {
      Best = D;
      Seed = Winner;
    }
  }
  return Best <= Cutoff ? Seed : -1;
}

//===----------------------------------------------------------------------===//
// Replays
//===----------------------------------------------------------------------===//

bool replayCold(const ColdKernel &K, const KernelReport &Expect) {
  TargetSpec Spec = TargetRegistry::instance().specFor(K.Target);
  TargetBackendRef Backend = TargetRegistry::instance().get(K.Target);
  std::vector<TensorIntrinsicRef> Intrs = Backend->intrinsics();
  if (!K.Layer.Depthwise) {
    int Offset = 0;
    for (bool Fuse : viewsOf(Spec)) {
      LaidOutOp Laid;
      {
        Span S("graph.layout");
        Laid = layOut(Spec, K.Layer, Fuse);
      }
      if (!isGpu(Spec)) {
        Span S("core.key_derive");
        (void)canonicalComputeKey(*Laid.Op);
      }
      std::optional<MatchResult> Match =
          firstMatch(Laid.Op, Intrs, &InspectCalls);
      if (!Match)
        continue;
      ++InspectMatches;
      {
        Span S("core.rewrite");
        (void)reorganizeLoops(Laid.Op, *Match);
      }
      TunerOptions Opts;
      Opts.Prune = true;
      Opts.SeedCandidate = K.Seed >= 0 ? K.Seed - Offset : -1;
      Span S("tuner.search");
      TunedKernel Tuned =
          isGpu(Spec) ? tuneGpu(Laid.Op, *Match, Spec.Gpu, nullptr, Opts)
                      : tuneCpu(Laid.Op, *Match, Spec.Cpu, nullptr, Opts);
      Offset += Tuned.SpaceSize;
    }
    if (isGpu(Spec)) {
      // The GPU key is the conv geometry; the backend derives it without
      // building an operation.
      Span S("core.key_derive");
      (void)Backend->convKey(K.Layer);
    }
  }
  CompileOptions Options;
  Options.SeedCandidate = K.Seed;
  KernelReport Direct;
  {
    Span S("runtime.direct_compile");
    Direct = Workload::conv2d(K.Layer).compileWith(*Backend, nullptr, Options);
  }
  return sameReport(Direct, Expect);
}

double inspectMatchRatio() {
  return InspectCalls ? static_cast<double>(InspectMatches) /
                            static_cast<double>(InspectCalls)
                      : 0.0;
}

std::optional<size_t> replayFrames(const std::string &Target,
                                   const ConvLayer &Layer,
                                   const KernelReport &Report) {
  std::string Request, Reply;
  {
    Span S("server.frame_encode");
    Json Msg = Json::object();
    Msg.set("type", "compile_async");
    Msg.set("id", 1);
    Msg.set("target", Target);
    Msg.set("workload", toJson(Layer));
    Msg.set("options", toJson(CompileOptions{}));
    Request = Msg.dump();
    Reply = makeResultNotification(1, true, Report).dump();
  }
  Span S("server.frame_decode");
  std::string Err;
  std::optional<Json> Req = Json::parse(Request, &Err);
  std::optional<Json> Rep = Json::parse(Reply, &Err);
  ConvLayer L;
  KernelReport R;
  if (!Req || !Rep || !Req->get("workload") || !Rep->get("report") ||
      !convLayerFromJson(*Req->get("workload"), L, Err) ||
      !kernelReportFromJson(*Rep->get("report"), R, Err) ||
      !sameReport(R, Report)) {
    std::fprintf(stderr, "perfbench: frame round trip failed: %s\n",
                 Err.c_str());
    return std::nullopt;
  }
  return Request.size() + Reply.size();
}

//===----------------------------------------------------------------------===//
// Correctness gate
//===----------------------------------------------------------------------===//

namespace {

/// \p Layer with channels and image cut to a size the interpreter runs in
/// well under a second, keeping kernel, stride and padding.
ConvLayer shrink(const ConvLayer &Layer) {
  ConvLayer S = Layer;
  S.Name = Layer.Name + ".gate";
  S.InC = std::min<int64_t>(Layer.InC, 16);
  S.OutC = std::min<int64_t>(Layer.OutC, 16);
  S.InH = std::max<int64_t>(std::min<int64_t>(Layer.InH, 6),
                            std::max<int64_t>(1, Layer.KH - 2 * Layer.PadH));
  S.InW = std::max<int64_t>(std::min<int64_t>(Layer.InW, 6),
                            std::max<int64_t>(1, Layer.KW - 2 * Layer.PadW));
  return S;
}

/// Seeded inputs: full-range integers, or small integers for float types
/// so every sum is exact whatever order the kernel reduces in.
void fill(Buffer &B, SplitMix64 &Rng) {
  if (!B.tensor()->dtype().isFloat()) {
    B.fillRandom(Rng);
    return;
  }
  for (int64_t I = 0; I < B.size(); ++I)
    B.setFloat(I, static_cast<double>(Rng.uniform(-4, 4)));
}

/// Lowers, runs and compares one shrunk kernel; returns mismatching
/// outputs, or -1 when it could not be lowered.
int64_t checkKernel(const LaidKernel &K, SplitMix64 &Rng) {
  StmtRef TIR;
  {
    Span S("interp.lower");
    TensorizePlan Plan = buildWinnerPlan(K);
    TIR = replaceTensorized(lower(*Plan.Sched), Plan);
    if (!verifyTIR(TIR).ok())
      return -1;
  }
  std::vector<std::unique_ptr<Buffer>> Inputs;
  for (const TensorRef &T : K.Op->inputs()) {
    Inputs.push_back(std::make_unique<Buffer>(T));
    fill(*Inputs.back(), Rng);
  }
  Buffer Out(K.Op->output()), Ref(K.Op->output());
  {
    Span S("interp.run");
    Interp I;
    for (const auto &In : Inputs)
      I.bind(In->tensor(), In.get());
    I.bind(K.Op->output(), &Out);
    I.run(TIR);
  }
  {
    Span S("interp.reference");
    std::vector<std::pair<TensorRef, Buffer *>> Bindings;
    for (const auto &In : Inputs)
      Bindings.emplace_back(In->tensor(), In.get());
    Bindings.emplace_back(K.Op->output(), &Ref);
    runComputeOpReference(K.Op, Bindings);
  }
  bool Float = K.Op->output()->dtype().isFloat();
  int64_t Mismatches = 0;
  for (int64_t I = 0; I < Out.size(); ++I)
    Mismatches += Float ? Out.getFloat(I) != Ref.getFloat(I)
                        : Out.getInt(I) != Ref.getInt(I);
  return Mismatches;
}

} // namespace

GateResult runGate(const std::vector<std::string> &Targets,
                   const std::vector<ConvLayer> &Layers, uint64_t Seed) {
  GateResult G;
  std::vector<ConvLayer> Pool;
  for (const ConvLayer &L : Layers)
    if (!L.Depthwise)
      Pool.push_back(L);
  SplitMix64 Rng(Seed * 0x9e3779b97f4a7c15ull + 0x6a7e);
  for (const std::string &Target : Targets) {
    TargetBackendRef Backend = TargetRegistry::instance().get(Target);
    // Seeded picks until one tensorizes: a fallback kernel has no tuned
    // winner to lower.
    for (int Attempt = 0; Attempt < 16 && !Pool.empty(); ++Attempt) {
      ConvLayer Small = shrink(
          Pool[static_cast<size_t>(Rng.uniform(0, Pool.size() - 1))]);
      KernelReport Report;
      {
        Span S("interp.compile");
        Report = Backend->compileConv(Small, nullptr, {});
      }
      std::optional<LaidKernel> K = winnerOf(Target, Small, Report);
      if (!K)
        continue;
      ++G.Kernels;
      int64_t Bad = checkKernel(*K, Rng);
      if (Bad != 0) {
        ++G.FailedKernels;
        std::fprintf(stderr, "perfbench: gate %s %s: %lld mismatches\n",
                     Target.c_str(), Small.Name.c_str(),
                     static_cast<long long>(Bad));
      }
      G.Mismatches += Bad > 0 ? static_cast<size_t>(Bad) : 0;
      ++G.TargetsCovered;
      break;
    }
  }
  return G;
}

//===----------------------------------------------------------------------===//
// Counters
//===----------------------------------------------------------------------===//

namespace {

obs::HistogramSnapshot minusHist(const obs::HistogramSnapshot &A,
                                 const obs::HistogramSnapshot &B) {
  obs::HistogramSnapshot D = A;
  for (int I = 0; I < obs::HistogramSnapshot::BucketCount; ++I)
    D.Buckets[I] -= B.Buckets[I];
  D.Count -= B.Count;
  D.SumSeconds -= B.SumSeconds;
  return D;
}

} // namespace

TunerCounters TunerCounters::now() {
  TunerCounters C;
  C.Invocations = tunerInvocations();
  C.Scored = tunerCandidatesScored();
  C.Pruned = tunerPrunedCandidates();
  C.Seeds = tunerTransferSeeds();
  C.CandidateCost = tunerCandidateCost();
  return C;
}

SessionDelta SessionDelta::of(CompilerSession &S) {
  SessionDelta D;
  CompilerSession::LatencySnapshots L = S.latencySnapshots();
  D.Cold = L.Cold;
  D.Warm = L.Warm;
  SessionStats Stats = S.sessionStats();
  D.FreshDispatches = Stats.FreshDispatches;
  D.InlineReadyHits = Stats.InlineReadyHits;
  D.TransferSeeds = Stats.TransferSeeds;
  KernelCache::CacheStats C = S.cache().stats();
  D.Hits = C.Hits;
  D.Misses = C.Misses;
  D.Evictions = C.Evictions;
  return D;
}

SessionDelta SessionDelta::minus(const SessionDelta &B) const {
  SessionDelta D = *this;
  D.Cold = minusHist(Cold, B.Cold);
  D.Warm = minusHist(Warm, B.Warm);
  D.FreshDispatches -= B.FreshDispatches;
  D.InlineReadyHits -= B.InlineReadyHits;
  D.TransferSeeds -= B.TransferSeeds;
  D.Hits -= B.Hits;
  D.Misses -= B.Misses;
  D.Evictions -= B.Evictions;
  return D;
}

void SessionDelta::add(const SessionDelta &O) {
  Cold.merge(O.Cold);
  Warm.merge(O.Warm);
  FreshDispatches += O.FreshDispatches;
  InlineReadyHits += O.InlineReadyHits;
  TransferSeeds += O.TransferSeeds;
  Hits += O.Hits;
  Misses += O.Misses;
  Evictions += O.Evictions;
}

//===----------------------------------------------------------------------===//
// Host speed
//===----------------------------------------------------------------------===//

namespace {

volatile size_t ReferenceSink;

int64_t referenceUnitNs() {
  int64_t T0 = nowNs();
  std::map<std::string, std::shared_ptr<std::vector<int>>> M;
  for (int I = 0; I < 300; ++I)
    M.emplace("k" + std::to_string(I * 7919 % 1000),
              std::make_shared<std::vector<int>>(8 + I % 16, I));
  size_t Sum = 0;
  for (const auto &[K, V] : M)
    Sum += K.size() + V->size();
  ReferenceSink = Sum;
  return nowNs() - T0;
}

} // namespace

Probe probeHost() {
  Probe P;
  P.AtNs = nowNs();
  std::vector<double> Units;
  for (int I = 0; I < 5; ++I)
    Units.push_back(static_cast<double>(referenceUnitNs()));
  P.RefNs = median(Units);
  P.CostNs = nowNs() - P.AtNs;
  return P;
}

double Window::sliceFactor(size_t I) const {
  double Ref = Probes[I].RefNs;
  if (I + 1 < Probes.size())
    Ref = (Ref + Probes[I + 1].RefNs) / 2;
  return NominalReferenceNs / Ref;
}

std::vector<double> Window::scaledLatencyMs() const {
  std::vector<double> Out(LatencyMs.size());
  for (size_t I = 0; I < LatencyMs.size(); ++I)
    Out[I] = LatencyMs[I] * sliceFactor(RequestSlice[I]);
  return Out;
}

double Window::scaledSeconds() const {
  double Ns = 0;
  for (size_t I = 0; I + 1 < Probes.size(); ++I)
    Ns += static_cast<double>(Probes[I + 1].AtNs - Probes[I].AtNs -
                              Probes[I].CostNs) *
          sliceFactor(I);
  return Ns / 1e9;
}

double Window::referenceUs() const {
  std::vector<double> Refs;
  for (const Probe &P : Probes)
    Refs.push_back(P.RefNs / 1e3);
  return median(Refs);
}

double histMeanUs(const obs::HistogramSnapshot &H) {
  return H.Count ? H.SumSeconds / static_cast<double>(H.Count) * 1e6 : 0.0;
}

namespace {
std::string WorkDir = ".bench_build";
} // namespace

void setWorkDir(const std::string &Dir) { WorkDir = Dir; }

std::string benchSocketPath() {
  // A relative path keeps sun_path short; "./" marks it as a Unix socket
  // to the client's endpoint parser.
  std::string Dir = WorkDir.front() == '/' ? WorkDir : "./" + WorkDir;
  return Dir + "/pb-" + std::to_string(::getpid()) + ".sock";
}

} // namespace pb
