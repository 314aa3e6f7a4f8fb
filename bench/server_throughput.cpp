//===- bench/server_throughput.cpp - Multi-client compile throughput -------===//
//
// Measures the compile server end to end: several clients connected at
// once, compiling overlapping model sets against one shared session.
// Reports cold throughput (every kernel tuned once, cross-client dedup),
// warm throughput (every layer a cache hit), the pipelined-vs-blocking
// comparison for per-layer traffic (compile_async streaming vs one
// round trip per layer — the streaming protocol's reason to exist), and
// restart-from-persisted-cache time; emits machine-readable
// BENCH_server.json (archived by CI).
//
// Plain binary (no google-benchmark): the interesting numbers are
// one-shot wall times, like the fig* benches.
//
//===----------------------------------------------------------------------===//

#include "fabric/Endpoint.h"
#include "models/ModelZoo.h"
#include "runtime/CompileRequest.h"
#include "server/CompileClient.h"
#include "server/CompileServer.h"
#include "support/Time.h"
#include "tuner/Tuner.h"
#include "target/TargetRegistry.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace unit;

namespace {

struct ClientOutcome {
  size_t Layers = 0;
  size_t CacheHitLayers = 0;
  bool Ok = true;
  std::string Err;
};

/// Each client compiles its share of \p Models over one connection.
ClientOutcome runClient(const std::string &SocketPath, const std::string &Name,
                        const std::vector<const Model *> &Models) {
  ClientOutcome Out;
  CompileClient Client;
  if (!Client.connect(SocketPath, &Out.Err) ||
      !Client.hello(Name, 0, &Out.Err)) {
    Out.Ok = false;
    return Out;
  }
  for (const Model *M : Models) {
    std::optional<CompileClient::ModelResult> R =
        Client.compileModel("x86", *M, {}, &Out.Err);
    if (!R) {
      Out.Ok = false;
      return Out;
    }
    Out.Layers += R->Layers.size();
    Out.CacheHitLayers += R->CacheHitLayers;
  }
  return Out;
}

/// Blocking per-layer traffic: one compile round trip per conv layer —
/// the client stalls on every reply before sending the next request.
ClientOutcome runClientBlockingLayers(const std::string &SocketPath,
                                      const std::string &Name,
                                      const std::vector<const Model *> &Models) {
  ClientOutcome Out;
  CompileClient Client;
  if (!Client.connect(SocketPath, &Out.Err) ||
      !Client.hello(Name, 0, &Out.Err)) {
    Out.Ok = false;
    return Out;
  }
  for (const Model *M : Models)
    for (const ConvLayer &L : M->Convs) {
      std::optional<CompileClient::CompileResult> R =
          Client.compileConv("x86", L, {}, &Out.Err);
      if (!R) {
        Out.Ok = false;
        return Out;
      }
      ++Out.Layers;
      if (R->Cached)
        ++Out.CacheHitLayers;
    }
  return Out;
}

/// Pipelined per-layer traffic: every layer of every model submitted as
/// compile_async before any result is joined; the socket never idles on
/// a round trip.
ClientOutcome runClientPipelinedLayers(
    const std::string &SocketPath, const std::string &Name,
    const std::vector<const Model *> &Models) {
  ClientOutcome Out;
  CompileClient Client;
  if (!Client.connect(SocketPath, &Out.Err) ||
      !Client.hello(Name, 0, &Out.Err)) {
    Out.Ok = false;
    return Out;
  }
  std::vector<CompileClient::AsyncHandle> Handles;
  for (const Model *M : Models) {
    std::optional<std::vector<CompileClient::AsyncHandle>> Submitted =
        Client.submitModelLayers("x86", *M, {}, &Out.Err);
    if (!Submitted) {
      Out.Ok = false;
      return Out;
    }
    Handles.insert(Handles.end(), Submitted->begin(), Submitted->end());
  }
  for (const CompileClient::AsyncHandle &H : Handles) {
    std::optional<CompileClient::CompileResult> R = Client.wait(H, &Out.Err);
    if (!R) {
      Out.Ok = false;
      return Out;
    }
    ++Out.Layers;
    if (R->Cached)
      ++Out.CacheHitLayers;
  }
  return Out;
}

/// One burst at a given fan-in depth: a handful of distinct NEVER-SEEN
/// kernels, each submitted \p Depth times back-to-back on one
/// connection, then joined. Every duplicate ticket is an in-flight join
/// on its key's single compile. The tuning cost (the distinct kernels)
/// is identical at every depth, so the ticket rate measures what a
/// pending join costs the session: continuations keep it near-free and
/// the rate scales with depth; a join that parked a pool thread would
/// starve the workers and collapse the deep burst. Returns tickets/s.
double runFanInBurst(const std::string &SocketPath, const std::string &Tag,
                     size_t Depth, size_t &TicketsOut) {
  static int Fresh = 0; // Advancing channel offset: every burst is cold.
  constexpr size_t DistinctKernels = 4;
  std::vector<ConvLayer> Layers;
  for (size_t I = 0; I < DistinctKernels; ++I) {
    ConvLayer L;
    L.Name = Tag + "_" + std::to_string(I);
    L.InC = 1024 + 16 * Fresh++;
    L.InH = L.InW = 7;
    L.OutC = 32;
    L.KH = L.KW = 1;
    Layers.push_back(L);
  }
  Model Burst;
  Burst.Name = Tag;
  for (size_t I = 0; I < DistinctKernels * Depth; ++I)
    Burst.Convs.push_back(Layers[I % DistinctKernels]);

  CompileClient Client;
  std::string Err;
  if (!Client.connect(SocketPath, &Err) || !Client.hello(Tag, 0, &Err)) {
    std::fprintf(stderr, "FAIL: %s: %s\n", Tag.c_str(), Err.c_str());
    std::exit(1);
  }
  double T0 = steadyNowSeconds();
  std::optional<std::vector<CompileClient::AsyncHandle>> Handles =
      Client.submitModelLayers("x86", Burst, {}, &Err);
  bool Ok = Handles.has_value() && Client.waitAll(&Err);
  double Wall = steadyNowSeconds() - T0;
  if (!Ok) {
    std::fprintf(stderr, "FAIL: %s: %s\n", Tag.c_str(), Err.c_str());
    std::exit(1);
  }
  TicketsOut = Burst.Convs.size();
  return static_cast<double>(TicketsOut) / Wall;
}

using ClientFn = ClientOutcome (*)(const std::string &, const std::string &,
                                   const std::vector<const Model *> &);

/// Fans \p Models out across \p ClientCount concurrent clients
/// round-robin and returns the wall time plus merged outcomes.
double runWaveWith(ClientFn Fn, const std::string &SocketPath,
                   const char *Tag, const std::vector<Model> &Models,
                   size_t ClientCount, size_t &LayersOut, size_t &HitsOut) {
  std::vector<std::vector<const Model *>> Shares(ClientCount);
  for (size_t I = 0; I < Models.size(); ++I)
    Shares[I % ClientCount].push_back(&Models[I]);
  std::vector<ClientOutcome> Outcomes(ClientCount);
  double T0 = steadyNowSeconds();
  std::vector<std::thread> Threads;
  for (size_t C = 0; C < ClientCount; ++C)
    Threads.emplace_back([&, C] {
      Outcomes[C] = Fn(SocketPath,
                       std::string(Tag) + "-" + std::to_string(C), Shares[C]);
    });
  for (std::thread &T : Threads)
    T.join();
  double Wall = steadyNowSeconds() - T0;
  LayersOut = 0;
  HitsOut = 0;
  for (const ClientOutcome &O : Outcomes) {
    if (!O.Ok) {
      std::fprintf(stderr, "FAIL: client error: %s\n", O.Err.c_str());
      std::exit(1);
    }
    LayersOut += O.Layers;
    HitsOut += O.CacheHitLayers;
  }
  return Wall;
}

double runWave(const std::string &SocketPath, const char *Tag,
               const std::vector<Model> &Models, size_t ClientCount,
               size_t &LayersOut, size_t &HitsOut) {
  return runWaveWith(runClient, SocketPath, Tag, Models, ClientCount,
                     LayersOut, HitsOut);
}

} // namespace

int main() {
  const std::string SocketPath =
      "/tmp/unit_bench_" + std::to_string(::getpid()) + ".sock";
  const std::string CachePath =
      "/tmp/unit_bench_" + std::to_string(::getpid()) + ".kc";
  constexpr size_t ClientCount = 4;

  std::vector<Model> Models = paperModels();
  size_t TotalLayers = 0;
  std::set<std::string> DistinctKeys;
  TargetBackendRef Backend = TargetRegistry::instance().get("x86");
  for (const Model &M : Models) {
    TotalLayers += M.Convs.size();
    for (const ConvLayer &L : M.Convs)
      DistinctKeys.insert(
          CompileRequest(Workload::conv2d(L), Backend).cacheKey());
  }

  // Baseline: the tuner work ONE session needs for all nine models (not
  // every distinct key reaches the tuner — depthwise layers fall back to
  // SIMD without a search). Four concurrent clients must match this.
  uint64_t TunesBefore = tunerInvocations();
  {
    CompilerSession Baseline;
    for (const Model &M : Models)
      Baseline.compileModel(M, "x86");
  }
  uint64_t ExpectedTunes = tunerInvocations() - TunesBefore;

  ServerConfig Config;
  Config.SocketPath = SocketPath;
  Config.CacheFile = CachePath;
  Config.PersistIntervalSeconds = 0; // Persist on shutdown only.
  auto Server = std::make_unique<CompileServer>(Config);
  std::string Err;
  if (!Server->start(&Err)) {
    std::fprintf(stderr, "FAIL: %s\n", Err.c_str());
    return 1;
  }

  // Wave 1 — cold: every tunable kernel tuned exactly once across all
  // clients (single-flight dedup, isomorphic layers across the nine
  // models collapse).
  TunesBefore = tunerInvocations();
  size_t ColdLayers = 0, ColdHits = 0;
  double ColdWall = runWave(SocketPath, "cold", Models, ClientCount,
                            ColdLayers, ColdHits);
  uint64_t ColdTunes = tunerInvocations() - TunesBefore;
  bool DedupOk = ColdTunes == ExpectedTunes;
  if (!DedupOk)
    std::fprintf(stderr,
                 "FAIL: expected %llu tuner invocations, measured %llu\n",
                 static_cast<unsigned long long>(ExpectedTunes),
                 static_cast<unsigned long long>(ColdTunes));
  std::printf("cold: %zu clients, %zu models, %zu layers -> %llu tuned "
              "kernels (%zu distinct, single-session baseline %llu tunes) "
              "in %.1f ms\n",
              ClientCount, Models.size(), ColdLayers,
              static_cast<unsigned long long>(ColdTunes), DistinctKeys.size(),
              static_cast<unsigned long long>(ExpectedTunes), ColdWall * 1e3);

  // Wave 2 — warm: all layers served from the shared cache.
  TunesBefore = tunerInvocations();
  size_t WarmLayers = 0, WarmHits = 0;
  double WarmWall = runWave(SocketPath, "warm", Models, ClientCount,
                            WarmLayers, WarmHits);
  bool WarmOk =
      tunerInvocations() == TunesBefore && WarmHits == WarmLayers;
  if (!WarmOk)
    std::fprintf(stderr, "FAIL: warm wave hit the tuner (%zu/%zu hits)\n",
                 WarmHits, WarmLayers);
  double WarmRps = static_cast<double>(Models.size()) / WarmWall;
  std::printf("warm: %zu layers all cache hits in %.2f ms "
              "(%.0f model compiles/s)\n",
              WarmLayers, WarmWall * 1e3, WarmRps);

  // Pipelined vs blocking, warm, per-layer: the same layer set once as
  // one blocking round trip per layer and once as a compile_async
  // stream. Round-trip serialization is what the streaming protocol
  // removes, so pipelined must sustain at least blocking's rate; a
  // couple of attempts absorb scheduler noise on loaded CI machines.
  double BlockingRps = 0, PipelinedRps = 0;
  double BlockingWall = 0, PipelinedWall = 0;
  bool PipelinedOk = false;
  for (int Attempt = 0; Attempt < 3 && !PipelinedOk; ++Attempt) {
    size_t Layers = 0, Hits = 0;
    BlockingWall = runWaveWith(runClientBlockingLayers, SocketPath,
                               "warm-blocking", Models, ClientCount, Layers,
                               Hits);
    if (Hits != Layers) {
      std::fprintf(stderr, "FAIL: warm blocking wave missed the cache "
                           "(%zu/%zu hits)\n",
                   Hits, Layers);
      return 1;
    }
    BlockingRps = static_cast<double>(Layers) / BlockingWall;
    size_t PipeLayers = 0, PipeHits = 0;
    PipelinedWall =
        runWaveWith(runClientPipelinedLayers, SocketPath, "warm-pipelined",
                    Models, ClientCount, PipeLayers, PipeHits);
    if (PipeHits != PipeLayers) {
      std::fprintf(stderr, "FAIL: warm pipelined wave missed the cache "
                           "(%zu/%zu hits)\n",
                   PipeHits, PipeLayers);
      return 1;
    }
    PipelinedRps = static_cast<double>(PipeLayers) / PipelinedWall;
    PipelinedOk = PipelinedRps >= BlockingRps;
  }
  if (!PipelinedOk)
    std::fprintf(stderr,
                 "FAIL: pipelined warm rps (%.0f) below blocking (%.0f)\n",
                 PipelinedRps, BlockingRps);
  std::printf("warm per-layer: blocking %.2f ms (%.0f layers/s) vs "
              "pipelined %.2f ms (%.0f layers/s) — %.2fx\n",
              BlockingWall * 1e3, BlockingRps, PipelinedWall * 1e3,
              PipelinedRps, PipelinedRps / BlockingRps);

  // Fan-in sweep: one connection bursts 4 cold kernels x Depth duplicate
  // tickets each, at one join per pool worker (1x) and at ten (10x). The
  // tuner does identical work at both depths, so the rate may not fall
  // off when the in-flight join count passes the pool size — the
  // continuation engine's contract (a join is a callback, not a parked
  // worker). The 0.8 floor leaves room for scheduler noise; with parked
  // joins the deep burst loses an order of magnitude, not 20%.
  size_t FanDepth = std::thread::hardware_concurrency();
  if (FanDepth < 4)
    FanDepth = 4;
  double Fanin1Rps = 0, Fanin10Rps = 0;
  size_t Fanin1Tickets = 0, Fanin10Tickets = 0;
  bool FaninOk = false;
  for (int Attempt = 0; Attempt < 3 && !FaninOk; ++Attempt) {
    Fanin1Rps = runFanInBurst(SocketPath, "fanin-1x", FanDepth,
                              Fanin1Tickets);
    Fanin10Rps = runFanInBurst(SocketPath, "fanin-10x", FanDepth * 10,
                               Fanin10Tickets);
    FaninOk = Fanin10Rps >= 0.8 * Fanin1Rps;
  }
  if (!FaninOk)
    std::fprintf(stderr,
                 "FAIL: 10x fan-in rate (%.0f tickets/s) fell below 0.8x "
                 "the 1x rate (%.0f tickets/s)\n",
                 Fanin10Rps, Fanin1Rps);
  std::printf("fan-in: depth %zu (%zu tickets) %.0f tickets/s | depth %zu "
              "(%zu tickets) %.0f tickets/s — %.2fx\n",
              FanDepth, Fanin1Tickets, Fanin1Rps, FanDepth * 10,
              Fanin10Tickets, Fanin10Rps, Fanin10Rps / Fanin1Rps);

  size_t CacheBytes = Server->session().cache().bytesUsed();
  size_t CacheEntries = Server->session().cache().size();

  // Restart: stop (persists), start a fresh server on the same cache
  // file, and compile everything again — zero tuner invocations.
  double T0 = steadyNowSeconds();
  Server->stop();
  Server.reset();
  double StopSeconds = steadyNowSeconds() - T0;

  Server = std::make_unique<CompileServer>(Config);
  T0 = steadyNowSeconds();
  if (!Server->start(&Err)) {
    std::fprintf(stderr, "FAIL: restart: %s\n", Err.c_str());
    return 1;
  }
  double RestartStartSeconds = steadyNowSeconds() - T0;
  TunesBefore = tunerInvocations();
  size_t RestartLayers = 0, RestartHits = 0;
  T0 = steadyNowSeconds();
  double RestartWall = runWave(SocketPath, "restart", Models, ClientCount,
                               RestartLayers, RestartHits);
  bool RestartOk =
      tunerInvocations() == TunesBefore && RestartHits == RestartLayers;
  if (!RestartOk)
    std::fprintf(stderr, "FAIL: restart re-tuned (%zu/%zu hits)\n",
                 RestartHits, RestartLayers);
  std::printf("restart: stop+persist %.2f ms | start+load %.2f ms | "
              "recompile all models %.2f ms (zero tuner invocations)\n",
              StopSeconds * 1e3, RestartStartSeconds * 1e3,
              RestartWall * 1e3);

  // Observability overhead: the same warm per-layer blocking wave against
  // this (tracing-on, the default) daemon, then against a daemon with
  // TraceEnabled=false warm-loaded from the same persisted cache, whose
  // requests open no root span and so leave every span inert. Spans and
  // histogram records are on the hot path of every request, so this is
  // the direct price of leaving them compiled in; best-of-3 each side
  // absorbs CI scheduler noise, and the 0.9 floor is the
  // instrument-by-default contract.
  double TraceOnRps = 0;
  for (int Attempt = 0; Attempt < 3; ++Attempt) {
    size_t OnLayers = 0, OnHits = 0;
    double OnWall =
        runWaveWith(runClientBlockingLayers, SocketPath, "trace-on", Models,
                    ClientCount, OnLayers, OnHits);
    if (OnHits != OnLayers) {
      std::fprintf(stderr, "FAIL: tracing-on warm wave missed the cache "
                           "(%zu/%zu hits)\n",
                   OnHits, OnLayers);
      return 1;
    }
    TraceOnRps =
        std::max(TraceOnRps, static_cast<double>(OnLayers) / OnWall);
  }

  // Tail latency of a warm compile as the server's own histograms see it
  // (the metrics message the dashboards would scrape) — read before the
  // daemon goes down.
  double WarmP99Ms = 0;
  {
    CompileClient MetricsClient;
    std::optional<Json> M;
    if (MetricsClient.connect(SocketPath, &Err) &&
        MetricsClient.hello("bench-metrics", 0, &Err))
      M = MetricsClient.metrics(&Err);
    if (!M) {
      std::fprintf(stderr, "FAIL: metrics: %s\n", Err.c_str());
      return 1;
    }
    if (const Json *Hists = M->get("histograms"))
      if (const Json *Warm = Hists->get("unit_compile_warm_seconds"))
        WarmP99Ms = Warm->num("p99", 0) * 1e3;
    std::printf("warm p99 (server histogram): %.3f ms\n", WarmP99Ms);
  }
  Server->stop();

  ServerConfig NoTraceConfig;
  NoTraceConfig.SocketPath = SocketPath + ".notrace";
  NoTraceConfig.CacheFile = CachePath;
  NoTraceConfig.PersistIntervalSeconds = 0;
  NoTraceConfig.TraceEnabled = false;
  auto NoTraceServer = std::make_unique<CompileServer>(NoTraceConfig);
  if (!NoTraceServer->start(&Err)) {
    std::fprintf(stderr, "FAIL: tracing-off server: %s\n", Err.c_str());
    return 1;
  }
  double TraceOffRps = 0;
  for (int Attempt = 0; Attempt < 3; ++Attempt) {
    size_t OffLayers = 0, OffHits = 0;
    double OffWall =
        runWaveWith(runClientBlockingLayers, NoTraceConfig.SocketPath,
                    "trace-off", Models, ClientCount, OffLayers, OffHits);
    if (OffHits != OffLayers) {
      std::fprintf(stderr, "FAIL: tracing-off warm wave missed the cache "
                           "(%zu/%zu hits)\n",
                   OffHits, OffLayers);
      return 1;
    }
    TraceOffRps =
        std::max(TraceOffRps, static_cast<double>(OffLayers) / OffWall);
  }
  NoTraceServer->stop();
  NoTraceServer.reset();
  bool TracingOk = TraceOnRps >= 0.9 * TraceOffRps;
  if (!TracingOk)
    std::fprintf(stderr,
                 "FAIL: tracing-on warm rps (%.0f) below 0.9x tracing-off "
                 "(%.0f)\n",
                 TraceOnRps, TraceOffRps);
  std::printf("tracing overhead: on %.0f layers/s vs off %.0f layers/s — "
              "%.3fx\n",
              TraceOnRps, TraceOffRps, TraceOnRps / TraceOffRps);

  std::remove(CachePath.c_str());

  // Fabric cluster: a hub daemon listening on TCP plus two peered
  // daemons. A never-seen kernel set tunes exactly once CLUSTER-wide
  // (on the hub), then both peers serve it warm through the fabric —
  // bulk warm-sync or per-key cold-miss fetch, never their own tuner.
  const std::string FabricSecret = "bench-fabric-secret";
  constexpr size_t FabricKernels = 8;
  constexpr size_t FabricPeerDaemons = 2;
  Model FabricModel;
  FabricModel.Name = "fabric-burst";
  for (size_t I = 0; I < FabricKernels; ++I) {
    ConvLayer L;
    L.Name = "fabric_" + std::to_string(I);
    L.InC = 4096 + 16 * static_cast<int64_t>(I);
    L.InH = L.InW = 7;
    L.OutC = 32;
    L.KH = L.KW = 3;
    L.Stride = 1;
    L.PadH = L.PadW = 1;
    FabricModel.Convs.push_back(L);
  }
  std::set<std::string> FabricKeys;
  for (const ConvLayer &L : FabricModel.Convs)
    FabricKeys.insert(
        CompileRequest(Workload::conv2d(L), Backend).cacheKey());

  ServerConfig HubConfig;
  HubConfig.SocketPath = SocketPath + ".hub";
  HubConfig.TcpListen = "127.0.0.1:0";
  HubConfig.Secret = FabricSecret;
  auto Hub = std::make_unique<CompileServer>(HubConfig);
  if (!Hub->start(&Err)) {
    std::fprintf(stderr, "FAIL: fabric hub: %s\n", Err.c_str());
    return 1;
  }
  std::string HubEp = Endpoint{"127.0.0.1", Hub->tcpPort()}.display();

  TunesBefore = tunerInvocations();
  ClientOutcome HubCold = runClientBlockingLayers(
      HubConfig.SocketPath, "fabric-hub", {&FabricModel});
  if (!HubCold.Ok) {
    std::fprintf(stderr, "FAIL: fabric hub client: %s\n",
                 HubCold.Err.c_str());
    return 1;
  }
  uint64_t FabricColdTunes = tunerInvocations() - TunesBefore;
  bool FabricColdOk = FabricColdTunes == FabricKeys.size();
  if (!FabricColdOk)
    std::fprintf(stderr,
                 "FAIL: fabric cold tuned %llu kernels, expected %zu\n",
                 static_cast<unsigned long long>(FabricColdTunes),
                 FabricKeys.size());

  std::vector<std::unique_ptr<CompileServer>> Peers;
  std::vector<std::string> PeerSockets;
  for (size_t D = 0; D < FabricPeerDaemons; ++D) {
    ServerConfig PeerConfig;
    PeerConfig.SocketPath = SocketPath + ".peer" + std::to_string(D);
    PeerConfig.Secret = FabricSecret;
    PeerConfig.Peers.push_back(HubEp);
    PeerSockets.push_back(PeerConfig.SocketPath);
    auto P = std::make_unique<CompileServer>(std::move(PeerConfig));
    if (!P->start(&Err)) {
      std::fprintf(stderr, "FAIL: fabric peer %zu: %s\n", D, Err.c_str());
      return 1;
    }
    Peers.push_back(std::move(P));
  }

  TunesBefore = tunerInvocations();
  std::vector<ClientOutcome> PeerOutcomes(FabricPeerDaemons);
  T0 = steadyNowSeconds();
  {
    std::vector<std::thread> Threads;
    for (size_t D = 0; D < FabricPeerDaemons; ++D)
      Threads.emplace_back([&, D] {
        PeerOutcomes[D] = runClientBlockingLayers(
            PeerSockets[D], "fabric-peer-" + std::to_string(D),
            {&FabricModel});
      });
    for (std::thread &T : Threads)
      T.join();
  }
  double FabricWarmWall = steadyNowSeconds() - T0;
  size_t FabricWarmLayers = 0, FabricWarmHits = 0;
  for (const ClientOutcome &O : PeerOutcomes) {
    if (!O.Ok) {
      std::fprintf(stderr, "FAIL: fabric peer client: %s\n", O.Err.c_str());
      return 1;
    }
    FabricWarmLayers += O.Layers;
    FabricWarmHits += O.CacheHitLayers;
  }
  bool FabricWarmOk = tunerInvocations() == TunesBefore &&
                      FabricWarmHits == FabricWarmLayers;
  if (!FabricWarmOk)
    std::fprintf(stderr,
                 "FAIL: fabric peers re-tuned or missed (%zu/%zu hits, "
                 "%llu tunes)\n",
                 FabricWarmHits, FabricWarmLayers,
                 static_cast<unsigned long long>(tunerInvocations() -
                                                 TunesBefore));
  double FabricWarmRps =
      static_cast<double>(FabricWarmLayers) / FabricWarmWall;
  std::printf("fabric: %zu daemons, %zu distinct kernels -> %llu cold "
              "tunes cluster-wide; %zu peer layers served warm via the "
              "fabric in %.2f ms (%.0f layers/s)\n",
              FabricPeerDaemons + 1, FabricKeys.size(),
              static_cast<unsigned long long>(FabricColdTunes),
              FabricWarmLayers, FabricWarmWall * 1e3, FabricWarmRps);
  for (auto &P : Peers)
    P->stop();
  Hub->stop();

  std::FILE *Json = std::fopen("BENCH_server.json", "w");
  if (!Json) {
    std::fprintf(stderr, "FAIL: could not write BENCH_server.json\n");
    return 1;
  }
  std::fprintf(
      Json,
      "{\n"
      "  \"bench\": \"server_throughput\",\n"
      "  \"clients\": %zu,\n"
      "  \"models\": %zu,\n"
      "  \"total_layers\": %zu,\n"
      "  \"distinct_kernels\": %zu,\n"
      "  \"single_session_tuner_invocations\": %llu,\n"
      "  \"cold_tuner_invocations\": %llu,\n"
      "  \"cross_client_dedup_ok\": %s,\n"
      "  \"cold_wall_ms\": %.3f,\n"
      "  \"warm_wall_ms\": %.3f,\n"
      "  \"warm_model_compiles_per_sec\": %.1f,\n"
      "  \"warm_all_cache_hits\": %s,\n"
      "  \"warm_blocking_layer_wall_ms\": %.3f,\n"
      "  \"warm_blocking_layer_rps\": %.1f,\n"
      "  \"warm_pipelined_layer_wall_ms\": %.3f,\n"
      "  \"warm_pipelined_layer_rps\": %.1f,\n"
      "  \"pipelined_speedup\": %.3f,\n"
      "  \"pipelined_ge_blocking\": %s,\n"
      "  \"fanin_depth\": %zu,\n"
      "  \"fanin_1x_tickets\": %zu,\n"
      "  \"fanin_1x_rps\": %.1f,\n"
      "  \"fanin_10x_tickets\": %zu,\n"
      "  \"fanin_10x_rps\": %.1f,\n"
      "  \"fanin_10x_ge_80pct_of_1x\": %s,\n"
      "  \"cache_entries\": %zu,\n"
      "  \"cache_bytes\": %zu,\n"
      "  \"restart_stop_persist_ms\": %.3f,\n"
      "  \"restart_start_load_ms\": %.3f,\n"
      "  \"restart_recompile_ms\": %.3f,\n"
      "  \"restart_zero_tuner_invocations\": %s,\n"
      "  \"warm_p99_ms\": %.4f,\n"
      "  \"tracing_on_warm_layer_rps\": %.1f,\n"
      "  \"tracing_off_warm_layer_rps\": %.1f,\n"
      "  \"tracing_overhead_ok\": %s,\n"
      "  \"fabric_daemons\": %zu,\n"
      "  \"fabric_distinct_kernels\": %zu,\n"
      "  \"fabric_cold_tunes_clusterwide\": %llu,\n"
      "  \"fabric_cold_tunes_equal_distinct\": %s,\n"
      "  \"fabric_warm_layers\": %zu,\n"
      "  \"fabric_warm_wall_ms\": %.3f,\n"
      "  \"fabric_warm_fetch_rps\": %.1f,\n"
      "  \"fabric_peers_zero_tuner_invocations\": %s\n"
      "}\n",
      ClientCount, Models.size(), TotalLayers, DistinctKeys.size(),
      static_cast<unsigned long long>(ExpectedTunes),
      static_cast<unsigned long long>(ColdTunes), DedupOk ? "true" : "false",
      ColdWall * 1e3, WarmWall * 1e3, WarmRps, WarmOk ? "true" : "false",
      BlockingWall * 1e3, BlockingRps, PipelinedWall * 1e3, PipelinedRps,
      PipelinedRps / BlockingRps, PipelinedOk ? "true" : "false", FanDepth,
      Fanin1Tickets, Fanin1Rps, Fanin10Tickets, Fanin10Rps,
      FaninOk ? "true" : "false", CacheEntries, CacheBytes, StopSeconds * 1e3,
      RestartStartSeconds * 1e3, RestartWall * 1e3,
      RestartOk ? "true" : "false", WarmP99Ms, TraceOnRps, TraceOffRps,
      TracingOk ? "true" : "false", FabricPeerDaemons + 1, FabricKeys.size(),
      static_cast<unsigned long long>(FabricColdTunes),
      FabricColdOk ? "true" : "false", FabricWarmLayers, FabricWarmWall * 1e3,
      FabricWarmRps, FabricWarmOk ? "true" : "false");
  std::fclose(Json);
  std::printf("wrote BENCH_server.json\n");
  return (DedupOk && WarmOk && PipelinedOk && FaninOk && RestartOk &&
          TracingOk && FabricColdOk && FabricWarmOk)
             ? 0
             : 1;
}
