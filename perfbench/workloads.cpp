//===- perfbench/workloads.cpp - The five benchmark workloads -------------===//
//
// zoo-cold        fresh session per target compiles the paper zoo (cold path)
// serve-stream    pipelined model requests against a pre-warmed server
// serve-blocking  the same requests, one blocking round trip per layer
// serve-churn     blocking Zipf layer requests against an undersized cache
//                 with a full transfer index
// codegen         plan rebuild + lowering of the tuned winners of one
//                 (model, target)
//
// Each is a closed loop: one load thread, at most one connection, and a
// caller that waits for every reply before sending the next request.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "core/Replacer.h"
#include "models/ModelZoo.h"
#include "runtime/CompileRequest.h"
#include "server/CompileClient.h"
#include "server/CompileServer.h"
#include "tir/Lower.h"
#include "tir/Verify.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace pb {

namespace {

double secondsSince(int64_t T0) {
  return static_cast<double>(nowNs() - T0) / 1e9;
}

[[noreturn]] void die(const std::string &Why) {
  std::fprintf(stderr, "perfbench: %s\n", Why.c_str());
  std::exit(2);
}

/// Cold compiles seen in a traced window, kept so a seeded sample can be
/// replayed layer by layer afterwards. History is the order in which the
/// session recorded winners into its transfer index; an entry's scan saw
/// the first Position of them.
using History = std::vector<std::pair<std::string, KernelReport>>;

struct ColdEntry {
  ColdKernel Kernel;
  KernelReport Report;
  std::shared_ptr<const History> Seen;
  size_t Position = 0;
};

struct ColdLog {
  std::vector<ColdEntry> Entries;
  uint64_t DistanceCalls = 0;

  void clear() { *this = ColdLog(); }

  /// Runs the mirrored scan of every logged cold compile of \p W and
  /// replays a seeded sample of up to \p N of them layer by layer. Returns
  /// the failures: sampled direct compiles whose report differs from the
  /// session's; one when the number of mirrored scans that picked a seed
  /// differs from the session's own count over the same compiles; and one
  /// when direct compiles of every logged request with the mirror's seeds
  /// score a different number of candidates than the window's compiles
  /// did (the seed decides which candidates the pruned search scores).
  size_t replay(size_t N, uint64_t Seed, const Window &W) {
    std::vector<size_t> Order(Entries.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    SplitMix64 Rng(Seed ^ 0xc01d);
    shuffle(Order, Rng);
    std::vector<bool> Sampled(Entries.size(), false);
    for (size_t I = 0; I < std::min(N, Order.size()); ++I)
      Sampled[Order[I]] = true;
    size_t Failures = 0;
    uint64_t Picked = 0, Scored = 0;
    // Entries of one session share a History in log order, so the mirror
    // grows as the session's index did.
    TransferMirror Mirror;
    const History *Built = nullptr;
    size_t Recorded = 0;
    for (size_t I = 0; I < Entries.size(); ++I) {
      ColdEntry &E = Entries[I];
      if (E.Seen.get() != Built || E.Position < Recorded) {
        Mirror = TransferMirror();
        Built = E.Seen.get();
        Recorded = 0;
      }
      for (; Recorded < E.Position; ++Recorded)
        Mirror.record((*E.Seen)[Recorded].first, (*E.Seen)[Recorded].second);
      E.Kernel.Seed = Mirror.replayScan(E.Kernel.Key, Sampled[I]);
      Picked += E.Kernel.Seed >= 0;
      CompileOptions Options;
      Options.SeedCandidate = E.Kernel.Seed;
      uint64_t Before = tunerCandidatesScored();
      (void)Workload::conv2d(E.Kernel.Layer)
          .compileWith(*TargetRegistry::instance().get(E.Kernel.Target),
                       nullptr, Options);
      Scored += tunerCandidatesScored() - Before;
      if (Sampled[I] && !replayCold(E.Kernel, E.Report)) {
        ++Failures;
        std::fprintf(stderr, "perfbench: replay of %s on %s disagrees\n",
                     E.Kernel.Layer.Name.c_str(), E.Kernel.Target.c_str());
      }
    }
    if (Picked != W.Session.TransferSeeds) {
      ++Failures;
      std::fprintf(stderr,
                   "perfbench: mirrored index seeded %llu cold compiles, "
                   "the session %llu\n",
                   static_cast<unsigned long long>(Picked),
                   static_cast<unsigned long long>(W.Session.TransferSeeds));
    }
    if (Scored != W.TunerScored) {
      ++Failures;
      std::fprintf(stderr,
                   "perfbench: mirror-seeded compiles scored %llu "
                   "candidates, the window %llu\n",
                   static_cast<unsigned long long>(Scored),
                   static_cast<unsigned long long>(W.TunerScored));
    }
    return Failures;
  }

  double callsPerCold() const {
    return Entries.empty() ? 0.0
                           : static_cast<double>(DistanceCalls) /
                                 static_cast<double>(Entries.size());
  }
};

constexpr size_t ReplaySample = 32;

/// A compile server on a private session plus one connected client.
struct ServerHarness {
  std::shared_ptr<CompilerSession> Session;
  std::unique_ptr<CompileServer> Server;
  std::unique_ptr<CompileClient> Client;

  void start(const SessionConfig &Cfg) {
    stop();
    Session = std::make_shared<CompilerSession>(Cfg);
    ServerConfig Config;
    Config.SocketPath = benchSocketPath();
    Config.TraceEnabled = false; // Spans cost time; end-to-end runs off.
    Config.PersistIntervalSeconds = 0;
    Config.Session = Session;
    Server = std::make_unique<CompileServer>(Config);
    std::string Err;
    if (!Server->start(&Err))
      die("server start failed: " + Err);
  }

  void connect() {
    Client = std::make_unique<CompileClient>();
    std::string Err;
    if (!Client->connect(Server->socketPath(), &Err) ||
        !Client->hello("perfbench", 0, &Err))
      die("client connect failed: " + Err);
  }

  void stop() {
    if (Client)
      Client->close();
    Client.reset();
    if (Server) {
      Server->stop();
      // The server leaves its path-claim file behind by design; this
      // socket path is private to the process, so nothing else needs it.
      std::remove((Server->socketPath() + ".lock").c_str());
    }
    Server.reset();
    Session.reset();
  }
};

/// Blocking round trip of every layer of \p Requests, then the same list
/// pipelined; returns pipelined / blocking layers per second. Blocking
/// round trips record one server.blocking_rtt span per layer.
double pipelinedSpeedup(
    CompileClient &Client, const std::vector<std::string> &Targets,
    const std::vector<Model> &Models,
    const std::vector<std::pair<size_t, size_t>> &Requests) {
  std::vector<double> Ratios;
  for (int Round = 0; Round < 3; ++Round) {
    size_t Layers = 0;
    int64_t T0 = nowNs();
    for (const auto &[T, M] : Requests)
      for (const ConvLayer &L : Models[M].Convs) {
        Span S("server.blocking_rtt");
        if (!Client.compileConv(Targets[T], L))
          die("blocking compile failed");
        ++Layers;
      }
    double Blocking = static_cast<double>(Layers) / secondsSince(T0);
    T0 = nowNs();
    for (const auto &[T, M] : Requests) {
      auto Handles = Client.submitModelLayers(Targets[T], Models[M]);
      if (!Handles)
        die("pipelined submit failed");
      for (const CompileClient::AsyncHandle &H : *Handles)
        if (!Client.wait(H))
          die("pipelined wait failed");
    }
    double Pipelined = static_cast<double>(Layers) / secondsSince(T0);
    Ratios.push_back(Pipelined / Blocking);
  }
  return median(Ratios);
}

//===----------------------------------------------------------------------===//
// zoo-cold
//===----------------------------------------------------------------------===//

class ZooCold : public BenchWorkload {
  std::vector<std::string> Targets;
  std::vector<Model> Models;
  uint64_t Seed = 0;
  uint64_t Passes = 0;
  /// First report set per (target, model); later passes must repeat it.
  std::map<std::pair<size_t, size_t>, std::vector<KernelReport>> Reference;
  /// key -> (layer, report) of every distinct kernel compiled.
  std::unordered_map<std::string, std::pair<ConvLayer, KernelReport>> Kernels;
  ColdLog Cold;

  /// A sequential session: one pool thread, no shape or candidate
  /// parallelism, so a compile's time does not depend on scheduling.
  static SessionConfig sessionConfig() {
    SessionConfig Cfg;
    Cfg.Threads = 1;
    Cfg.ParallelShapes = false;
    Cfg.ParallelCandidates = false;
    return Cfg;
  }

public:
  void setup(uint64_t SeedIn) override {
    Seed = SeedIn;
    Passes = 0;
    Reference.clear();
    Kernels.clear();
    Targets = registerBenchTargets();
    Models = paperModels();
    // Warm-up: one untimed pass. It fills every backend's key memo the
    // way a long-lived process has them, warms lazy statics and the
    // allocator, and records the reference reports.
    Window WarmUp;
    pass(WarmUp);
    if (WarmUp.Failed)
      die("zoo-cold warm-up pass failed");
  }

  /// One pass: every target, in a seeded order, compiles the zoo in a
  /// fresh session. The first pass of a setup records the reference
  /// reports every later pass must repeat.
  void pass(Window &W) {
    bool Traced = SpanLog::get().enabled();
    SessionConfig Cfg = sessionConfig();
    SplitMix64 Rng(Seed * 1000003 + Passes++);
    std::vector<size_t> Order(Targets.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    shuffle(Order, Rng);
    for (size_t T : Order) {
      TargetBackendRef B = TargetRegistry::instance().get(Targets[T]);
      CompilerSession Session(Cfg);
      auto Seen = std::make_shared<History>();
      TransferMirror Mirror;
      std::unordered_set<std::string> Compiled;
      for (size_t M = 0; M < Models.size(); ++M) {
        SpanLog::get().beginRequest();
        int64_t R0 = nowNs();
        ModelCompileResult R;
        bool Ok = true;
        {
          Span S("runtime.compile_model");
          try {
            R = Session.compileModel(Models[M], *B);
          } catch (...) {
            Ok = false;
          }
        }
        W.record(R0, T);
        W.Layers += Models[M].Convs.size();
        auto Ref = Reference.find({T, M});
        if (Ok && Ref == Reference.end()) {
          Reference[{T, M}] = R.Layers;
          for (size_t I = 0; I < R.Layers.size(); ++I)
            Kernels.emplace(B->convKey(Models[M].Convs[I]),
                            std::make_pair(Models[M].Convs[I], R.Layers[I]));
        } else if (Ok)
          Ok = std::equal(R.Layers.begin(), R.Layers.end(),
                          Ref->second.begin(), Ref->second.end(),
                          sameReport);
        W.Failed += !Ok;
        if (!Ok || !Traced)
          continue;
        // The sequential compileModel path compiles each new distinct
        // key in layer order; mirror its transfer index alongside.
        for (size_t I = 0; I < R.Layers.size(); ++I) {
          const ConvLayer &L = Models[M].Convs[I];
          std::string Key = B->convKey(L);
          if (!Compiled.insert(Key).second)
            continue;
          Cold.DistanceCalls += Mirror.scanLength(Key);
          Cold.Entries.push_back(
              {{Targets[T], L, Key, -1}, R.Layers[I], Seen, Seen->size()});
          Mirror.record(Key, R.Layers[I]);
          Seen->push_back({Key, R.Layers[I]});
        }
      }
      W.Session.add(SessionDelta::of(Session));
    }
  }

  Window run(double Seconds) override {
    Window W;
    Cold.clear();
    int64_t T0 = nowNs();
    // Whole passes only, so every run weighs each (target, model) equally;
    // a pass starts only if it should end within the window.
    double PassSeconds = 0;
    while (W.Requests == 0 || secondsSince(T0) + PassSeconds <= Seconds) {
      int64_t P0 = nowNs();
      pass(W);
      PassSeconds = secondsSince(P0);
    }
    W.Seconds = secondsSince(T0);
    return W;
  }

  void layerMetrics(const Window &W, Metrics &Out) override {
    size_t Bad = Cold.replay(ReplaySample, Seed, W);
    Out.add("core.structural_distance_calls", Cold.callsPerCold(), "count");
    Out.add("replay.mismatches", static_cast<double>(Bad), "count");
  }

  std::vector<double> modeledGops() override {
    std::vector<double> G;
    for (const auto &[Key, Kernel] : Kernels)
      G.push_back(pb::modeledGops(Kernel.first, Kernel.second));
    return G;
  }

  std::vector<ConvLayer> gateLayers() override {
    std::vector<ConvLayer> Out;
    for (const Model &M : Models)
      Out.insert(Out.end(), M.Convs.begin(), M.Convs.end());
    return Out;
  }
};

//===----------------------------------------------------------------------===//
// serve-stream
//===----------------------------------------------------------------------===//

class ServeStream : public BenchWorkload {
  /// serve-blocking: each layer of a model is one blocking compile.
  const bool Blocking;
  std::vector<std::string> Targets;
  std::vector<Model> Models;
  uint64_t Seed = 0;
  ServerHarness H;
  /// The in-process session's reports per (target, model): what every
  /// reply over the wire must equal.
  std::map<std::pair<size_t, size_t>, std::vector<KernelReport>> Expected;
  std::vector<std::pair<size_t, size_t>> Drawn;

  /// One request: submit every layer of the model, then wait for all;
  /// or, blocking, compile the layers one round trip at a time.
  bool request(size_t T, size_t M) {
    const std::vector<KernelReport> &Want = Expected[{T, M}];
    if (Blocking) {
      bool Ok = true;
      for (size_t I = 0; I < Models[M].Convs.size(); ++I) {
        std::optional<CompileClient::CompileResult> R;
        {
          Span S("server.blocking_rtt");
          R = H.Client->compileConv(Targets[T], Models[M].Convs[I]);
        }
        Ok = Ok && R && R->Cached && sameReport(R->Report, Want[I]);
      }
      return Ok;
    }
    std::optional<std::vector<CompileClient::AsyncHandle>> Handles;
    {
      Span S("server.submit_model");
      Handles = H.Client->submitModelLayers(Targets[T], Models[M]);
    }
    if (!Handles || Handles->size() != Models[M].Convs.size())
      return false;
    bool Ok = true;
    Span S("server.wait_model");
    for (size_t I = 0; I < Handles->size(); ++I) {
      std::optional<CompileClient::CompileResult> R =
          H.Client->wait((*Handles)[I]);
      Ok = Ok && R && sameReport(R->Report, Want[I]);
    }
    // Every handle is resolved; waitAll() now only drops the client's
    // record of them, which would otherwise grow with the run.
    return H.Client->waitAll() && Ok;
  }

public:
  explicit ServeStream(bool Blocking) : Blocking(Blocking) {}
  ~ServeStream() override { H.stop(); }

  void setup(uint64_t SeedIn) override {
    Seed = SeedIn;
    Expected.clear();
    Targets = registerBenchTargets();
    Models = paperModels();
    SessionConfig Cfg;
    Cfg.Threads = 2;
    Cfg.ParallelCandidates = false;
    H.start(Cfg);
    for (size_t T = 0; T < Targets.size(); ++T)
      for (size_t M = 0; M < Models.size(); ++M)
        Expected[{T, M}] =
            H.Session->compileModel(Models[M], Targets[T]).Layers;
    H.connect();
    // Warm-up over the wire: every (model, target) once.
    for (size_t T = 0; T < Targets.size(); ++T)
      for (size_t M = 0; M < Models.size(); ++M)
        if (!request(T, M))
          die("serve warm-up: reply differs from the session");
  }

  Window run(double Seconds) override {
    Window W;
    Drawn.clear();
    SplitMix64 Rng(Seed);
    SessionDelta Before = SessionDelta::of(*H.Session);
    int64_t T0 = nowNs();
    while (secondsSince(T0) < Seconds) {
      size_t T = static_cast<size_t>(Rng.uniform(0, Targets.size() - 1));
      size_t M = static_cast<size_t>(Rng.uniform(0, Models.size() - 1));
      SpanLog::get().beginRequest();
      int64_t R0 = nowNs();
      bool Ok = request(T, M);
      W.record(R0, T);
      W.Failed += !Ok;
      W.Layers += Models[M].Convs.size();
      Drawn.push_back({T, M});
    }
    W.Seconds = secondsSince(T0);
    W.Session = SessionDelta::of(*H.Session).minus(Before);
    return W;
  }

  void layerMetrics(const Window &, Metrics &Out) override {
    SplitMix64 Rng(Seed ^ 0xf4a3e);
    size_t Bytes = 0, Frames = 0, Bad = 0;
    for (size_t I = 0; I < 256 && !Drawn.empty(); ++I) {
      auto [T, M] = Drawn[static_cast<size_t>(Rng.uniform(0, Drawn.size() - 1))];
      size_t L = static_cast<size_t>(
          Rng.uniform(0, Models[M].Convs.size() - 1));
      std::optional<size_t> Size =
          replayFrames(Targets[T], Models[M].Convs[L], Expected[{T, M}][L]);
      Bytes += Size.value_or(0);
      Bad += !Size;
      ++Frames;
      Span S("runtime.warm_compile");
      (void)H.Session->compile(
          CompileRequest(Workload::conv2d(Models[M].Convs[L]), Targets[T]));
    }
    std::vector<std::pair<size_t, size_t>> List(
        Drawn.begin(), Drawn.begin() + std::min<size_t>(16, Drawn.size()));
    Out.add("server.frame_bytes",
            Frames ? static_cast<double>(Bytes) / static_cast<double>(Frames)
                   : 0.0,
            "B");
    Out.add("server.pipelined_speedup",
            pipelinedSpeedup(*H.Client, Targets, Models, List), "ratio");
    Out.add("replay.mismatches", static_cast<double>(Bad), "count");
  }

  std::vector<double> modeledGops() override {
    std::map<std::string, double> Distinct;
    for (const auto &[TM, Reports] : Expected) {
      TargetBackendRef B = TargetRegistry::instance().get(Targets[TM.first]);
      for (size_t I = 0; I < Reports.size(); ++I) {
        const ConvLayer &L = Models[TM.second].Convs[I];
        Distinct.emplace(B->convKey(L), pb::modeledGops(L, Reports[I]));
      }
    }
    std::vector<double> G;
    for (const auto &[Key, V] : Distinct)
      G.push_back(V);
    return G;
  }

  std::vector<ConvLayer> gateLayers() override {
    std::set<size_t> DrawnModels;
    for (const auto &TM : Drawn)
      DrawnModels.insert(TM.second);
    std::vector<ConvLayer> Out;
    for (size_t M : DrawnModels)
      Out.insert(Out.end(), Models[M].Convs.begin(), Models[M].Convs.end());
    return Out;
  }

  void teardown() override { H.stop(); }
};

//===----------------------------------------------------------------------===//
// serve-churn
//===----------------------------------------------------------------------===//

class ServeChurn : public BenchWorkload {
  static constexpr size_t PoolSize = 1024;
  static constexpr size_t FillSize = 512; ///< The transfer index's cap.
  static constexpr size_t CacheEntries = 16;
  static constexpr double ZipfExponent = 1.0;
  const std::string Target = "x86";

  uint64_t Seed = 0;
  ServerHarness H;
  std::vector<ConvLayer> Pool; ///< Distinct x86 keys.
  std::vector<std::string> Keys;
  std::vector<double> Cdf;          ///< Zipf over ranks.
  std::vector<size_t> RankToPool;   ///< Popularity rank -> pool index.
  std::shared_ptr<History> Filled;  ///< Transfer index content.
  /// First report received per pool index; later replies must repeat it.
  std::unordered_map<size_t, KernelReport> Received;
  std::vector<size_t> Drawn;
  SplitMix64 Stream; ///< The request stream; continues across windows.
  ColdLog Cold;

  /// Perturbs zoo convs (channels in steps of 16, image size) until
  /// PoolSize distinct x86 cache keys exist.
  void buildPool(SplitMix64 &Rng) {
    std::vector<ConvLayer> Base;
    for (const Model &M : paperModels())
      for (const ConvLayer &L : M.Convs)
        if (!L.Depthwise)
          Base.push_back(L);
    TargetBackendRef B = TargetRegistry::instance().get(Target);
    std::unordered_set<std::string> Seen;
    Pool.clear();
    Keys.clear();
    while (Pool.size() < PoolSize) {
      ConvLayer L = Base[static_cast<size_t>(Rng.uniform(0, Base.size() - 1))];
      L.Name = "churn" + std::to_string(Pool.size());
      L.InC = std::max<int64_t>(16, L.InC + 16 * Rng.uniform(-2, 2));
      L.OutC = std::max<int64_t>(16, L.OutC + 16 * Rng.uniform(-2, 2));
      if (L.InH > 1) {
        L.InH = std::max<int64_t>(L.KH, L.InH + Rng.uniform(-3, 3));
        L.InW = L.InH;
      }
      std::string Key = B->convKey(L);
      if (Seen.insert(Key).second) {
        Pool.push_back(L);
        Keys.push_back(Key);
      }
    }
    Cdf.assign(PoolSize, 0.0);
    double Sum = 0;
    for (size_t R = 0; R < PoolSize; ++R)
      Cdf[R] = Sum += 1.0 / std::pow(static_cast<double>(R + 1), ZipfExponent);
    for (double &C : Cdf)
      C /= Sum;
    RankToPool.resize(PoolSize);
    for (size_t I = 0; I < PoolSize; ++I)
      RankToPool[I] = I;
    shuffle(RankToPool, Rng);
  }

  size_t draw(SplitMix64 &Rng) const {
    double U = Rng.uniformReal();
    size_t Rank = static_cast<size_t>(
        std::lower_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin());
    return RankToPool[std::min(Rank, PoolSize - 1)];
  }

public:
  ~ServeChurn() override { H.stop(); }

  void setup(uint64_t SeedIn) override {
    Seed = SeedIn;
    Received.clear();
    (void)registerBenchTargets();
    // The pool is fixed, like the zoo it perturbs; the seed draws the
    // request stream over it.
    SplitMix64 PoolRng(0x5eed);
    buildPool(PoolRng);
    SessionConfig Cfg;
    Cfg.Threads = 2;
    Cfg.ParallelShapes = false;
    Cfg.ParallelCandidates = false;
    Cfg.CacheCapacity = CacheEntries;
    H.start(Cfg);
    // Fill the transfer index to its cap the way a fleet member does: the
    // FillSize most popular keys arrive as peer-fetched reports (each
    // tuned directly on the backend here), which the session records
    // without running its scan. Least popular first, so the LRU cache
    // ends up holding the most popular keys: the window starts near its
    // steady-state hit rate.
    TargetBackendRef B = TargetRegistry::instance().get(Target);
    std::vector<size_t> FillOrder;
    for (size_t Rank = FillSize; Rank-- > 0;)
      FillOrder.push_back(RankToPool[Rank]);
    std::unordered_map<std::string, ConvLayer> ByKey;
    for (size_t P : FillOrder)
      ByKey.emplace(Keys[P], Pool[P]);
    H.Session->setColdMissFetcher(
        [&](const std::string &Key) -> std::optional<KernelReport> {
          auto It = ByKey.find(Key);
          if (It == ByKey.end())
            return std::nullopt;
          return Workload::conv2d(It->second).compileWith(*B, nullptr, {});
        });
    Filled = std::make_shared<History>();
    for (size_t P : FillOrder)
      Filled->push_back(
          {Keys[P], H.Session->compile(
                        CompileRequest(Workload::conv2d(Pool[P]), B))});
    H.Session->setColdMissFetcher(nullptr);
    H.connect();
    // Warm-up: 128 requests of a fixed stream, so every seed's set-up does
    // the same work.
    SplitMix64 WarmUp(0x3a3a);
    for (int I = 0; I < 128; ++I)
      if (!H.Client->compileConv(Target, Pool[draw(WarmUp)]))
        die("serve-churn warm-up failed");
    Stream = SplitMix64(Seed * 7919 + 1);
  }

  Window run(double Seconds) override {
    Window W;
    Cold.clear();
    Drawn.clear();
    bool Traced = SpanLog::get().enabled();
    SessionDelta Before = SessionDelta::of(*H.Session);
    int64_t T0 = nowNs();
    while (secondsSince(T0) < Seconds) {
      size_t P = draw(Stream);
      SpanLog::get().beginRequest();
      int64_t R0 = nowNs();
      std::optional<CompileClient::CompileResult> R;
      {
        Span S("server.compile");
        R = H.Client->compileConv(Target, Pool[P]);
      }
      W.record(R0, 0); // x86 is the first bench target.
      ++W.Layers;
      Drawn.push_back(P);
      bool Ok = R.has_value();
      if (Ok) {
        auto [It, New] = Received.emplace(P, R->Report);
        Ok = New || sameReport(It->second, R->Report);
      }
      W.Failed += !Ok;
      if (Ok && Traced && !R->Cached) {
        Cold.DistanceCalls += Filled->size();
        Cold.Entries.push_back(
            {{Target, Pool[P], Keys[P], -1}, R->Report, Filled, Filled->size()});
      }
    }
    W.Seconds = secondsSince(T0);
    W.Session = SessionDelta::of(*H.Session).minus(Before);
    // Wire parity: each resident entry must equal what the wire returned.
    for (const auto &[P, Report] : Received)
      if (std::optional<KernelReport> Local =
              H.Session->cache().lookup(Keys[P]))
        W.Failed += !sameReport(*Local, Report);
    return W;
  }

  void layerMetrics(const Window &W, Metrics &Out) override {
    size_t Bad = Cold.replay(ReplaySample, Seed, W);
    SplitMix64 Rng(Seed ^ 0xf4a3e);
    size_t Bytes = 0, Frames = 0;
    for (size_t I = 0; I < 256 && !Drawn.empty(); ++I) {
      size_t P = Drawn[static_cast<size_t>(Rng.uniform(0, Drawn.size() - 1))];
      std::optional<size_t> Size = replayFrames(Target, Pool[P], Received[P]);
      Bytes += Size.value_or(0);
      Bad += !Size;
      ++Frames;
      if (!H.Session->cache().lookup(Keys[P]))
        continue; // Evicted: a compile here would not be a warm hit.
      {
        Span S("runtime.warm_compile");
        (void)H.Session->compile(CompileRequest(Workload::conv2d(Pool[P]),
                                                Target));
      }
      Span S("server.blocking_rtt");
      (void)H.Client->compileConv(Target, Pool[P]);
    }
    Out.add("core.structural_distance_calls", Cold.callsPerCold(), "count");
    Out.add("replay.mismatches", static_cast<double>(Bad), "count");
    Out.add("server.frame_bytes",
            Frames ? static_cast<double>(Bytes) / static_cast<double>(Frames)
                   : 0.0,
            "B");
  }

  /// Over the fill set (the pool's most popular keys), which is the same
  /// for every seed.
  std::vector<double> modeledGops() override {
    std::vector<double> G;
    for (size_t Rank = 0; Rank < FillSize; ++Rank)
      G.push_back(pb::modeledGops(Pool[RankToPool[Rank]],
                                  (*Filled)[FillSize - 1 - Rank].second));
    return G;
  }

  std::vector<ConvLayer> gateLayers() override {
    std::vector<ConvLayer> Out;
    for (size_t P : Drawn)
      Out.push_back(Pool[P]);
    return Out;
  }

  void teardown() override { H.stop(); }
};

//===----------------------------------------------------------------------===//
// codegen
//===----------------------------------------------------------------------===//

class Codegen : public BenchWorkload {
  struct Kernel {
    size_t TargetIndex = 0;
    ConvLayer Layer;
    KernelReport Report;
    LaidKernel Laid;
    size_t Stmts = 0; ///< Statement count of the warm-up lowering.
  };
  uint64_t Seed = 0;
  std::vector<Kernel> Kernels;
  /// One entry per (target, model) with a tuned winner: the indices into
  /// Kernels of the model's distinct kernels on that target.
  std::vector<std::vector<size_t>> Requests;

  /// Plan rebuild plus the three steps of lowerPlan (lower, Replacer,
  /// verifyTIR), each under its own span; false when verification fails.
  static bool lowerKernel(const Kernel &K, StmtRef &Out) {
    TensorizePlan Plan;
    {
      Span S("tuner.plan_build");
      Plan = buildWinnerPlan(K.Laid);
    }
    StmtRef Lowered;
    {
      Span S("tir.lower");
      Lowered = lower(*Plan.Sched);
    }
    {
      Span S("core.replace");
      Out = replaceTensorized(Lowered, Plan);
    }
    Span S("tir.verify");
    return verifyTIR(Out).ok();
  }

public:
  void setup(uint64_t SeedIn) override {
    Seed = SeedIn;
    Kernels.clear();
    Requests.clear();
    std::vector<std::string> Targets = registerBenchTargets();
    std::vector<Model> Models = paperModels();
    SessionConfig Cfg;
    Cfg.Threads = 2;
    Cfg.ParallelCandidates = false;
    for (size_t TI = 0; TI < Targets.size(); ++TI) {
      const std::string &T = Targets[TI];
      CompilerSession Session(Cfg);
      TargetBackendRef B = TargetRegistry::instance().get(T);
      std::unordered_map<std::string, size_t> ByKey;
      for (const Model &M : Models) {
        ModelCompileResult R = Session.compileModel(M, *B);
        std::vector<size_t> Request;
        for (size_t I = 0; I < M.Convs.size(); ++I) {
          std::string Key = B->convKey(M.Convs[I]);
          auto It = ByKey.find(Key);
          if (It == ByKey.end()) {
            std::optional<LaidKernel> K = winnerOf(T, M.Convs[I], R.Layers[I]);
            if (!K)
              continue; // Fallback report: nothing to lower.
            It = ByKey.emplace(Key, Kernels.size()).first;
            Kernels.push_back({TI, M.Convs[I], R.Layers[I], *K, 0});
          }
          if (std::find(Request.begin(), Request.end(), It->second) ==
              Request.end())
            Request.push_back(It->second);
        }
        if (!Request.empty())
          Requests.push_back(std::move(Request));
      }
    }
    // Warm-up: lower every kernel once; this also records the statement
    // count every later lowering must repeat.
    for (Kernel &K : Kernels) {
      StmtRef Out;
      if (!lowerKernel(K, Out))
        die("codegen warm-up: " + K.Layer.Name + " does not verify");
      K.Stmts = countStmts(Out);
    }
  }

  Window run(double Seconds) override {
    Window W;
    SplitMix64 Rng(Seed);
    std::vector<StmtRef> Lowered;
    int64_t T0 = nowNs();
    while (secondsSince(T0) < Seconds) {
      const std::vector<size_t> &Request =
          Requests[static_cast<size_t>(Rng.uniform(0, Requests.size() - 1))];
      SpanLog::get().beginRequest();
      int64_t R0 = nowNs();
      bool Ok = true;
      Lowered.resize(Request.size());
      for (size_t I = 0; I < Request.size(); ++I)
        Ok = lowerKernel(Kernels[Request[I]], Lowered[I]) && Ok;
      W.record(R0, Kernels[Request.front()].TargetIndex);
      W.Layers += Request.size();
      // Lowering is deterministic: each winner must yield the statement
      // count of its warm-up lowering.
      for (size_t I = 0; I < Request.size(); ++I)
        Ok = Ok && countStmts(Lowered[I]) == Kernels[Request[I]].Stmts;
      W.Failed += !Ok;
    }
    W.Seconds = secondsSince(T0);
    return W;
  }

  void layerMetrics(const Window &, Metrics &Out) override {
    std::vector<double> Stmts;
    for (const Kernel &K : Kernels)
      Stmts.push_back(static_cast<double>(K.Stmts));
    Out.add("tir.stmts", geomean(Stmts), "stmts");
  }

  std::vector<double> modeledGops() override {
    std::vector<double> G;
    for (const Kernel &K : Kernels)
      G.push_back(pb::modeledGops(K.Layer, K.Report));
    return G;
  }

  std::vector<ConvLayer> gateLayers() override {
    std::vector<ConvLayer> Out;
    for (const Kernel &K : Kernels)
      Out.push_back(K.Layer);
    return Out;
  }
};

} // namespace

std::unique_ptr<BenchWorkload> makeZooCold() {
  return std::make_unique<ZooCold>();
}
std::unique_ptr<BenchWorkload> makeServeStream() {
  return std::make_unique<ServeStream>(/*Blocking=*/false);
}
std::unique_ptr<BenchWorkload> makeServeBlocking() {
  return std::make_unique<ServeStream>(/*Blocking=*/true);
}
std::unique_ptr<BenchWorkload> makeServeChurn() {
  return std::make_unique<ServeChurn>();
}
std::unique_ptr<BenchWorkload> makeCodegen() {
  return std::make_unique<Codegen>();
}

} // namespace pb
