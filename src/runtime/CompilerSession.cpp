//===- runtime/CompilerSession.cpp -----------------------------------------===//

#include "runtime/CompilerSession.h"

#include "core/Isomorphism.h"
#include "obs/Trace.h"
#include "support/Time.h"
#include "tuner/TuningSpace.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <unordered_map>

using namespace unit;

CompilerSession::CompilerSession(SessionConfig ConfigIn)
    : Config(std::move(ConfigIn)),
      Cache(Config.CacheCapacity, Config.CacheCapacityBytes),
      Pool(std::make_unique<ThreadPool>(Config.Threads)) {
  if (Config.CacheTTLSeconds > 0 || Config.CacheClock)
    Cache.setTTL(Config.CacheTTLSeconds, Config.CacheClock);
}

CompilerSession::~CompilerSession() = default;

namespace {

std::mutex &sharedSessionMutex() {
  static std::mutex Mu;
  return Mu;
}

std::shared_ptr<CompilerSession> &sharedSessionSlot() {
  static std::shared_ptr<CompilerSession> Session =
      std::make_shared<CompilerSession>();
  return Session;
}

/// Non-owning handle for borrowed-backend entry points (compileModel with
/// a const reference joins every job before returning, so the borrow is
/// always outlived).
TargetBackendRef borrow(const TargetBackend &Backend) {
  return TargetBackendRef(&Backend, [](const TargetBackend *) {});
}

} // namespace

std::shared_ptr<CompilerSession> CompilerSession::shared() {
  // By value, copied under the lock: a reference to the slot would escape
  // the critical section and race with resetShared()'s assignment.
  std::lock_guard<std::mutex> Lock(sharedSessionMutex());
  return sharedSessionSlot();
}

std::shared_ptr<CompilerSession>
CompilerSession::resetShared(SessionConfig Config) {
  auto Fresh = std::make_shared<CompilerSession>(Config);
  std::lock_guard<std::mutex> Lock(sharedSessionMutex());
  sharedSessionSlot() = Fresh;
  return Fresh;
}

//===----------------------------------------------------------------------===//
// Transfer tuning (docs/TUNING.md)
//===----------------------------------------------------------------------===//

namespace {

/// Splits a cache key at its `target|spechash|kind|` prefix. Returns
/// false for keys without three '|' separators (no backend produces
/// those, but a malformed key must never seed anything).
bool splitTransferKey(const std::string &Key, std::string &Group,
                      std::string &Body) {
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

/// Per-group entry cap: the index is an accelerator, not a cache — a
/// runaway key population must not grow it without bound.
constexpr size_t TransferGroupCap = 512;

} // namespace

int CompilerSession::transferSeedFor(const std::string &Key) {
  std::string Group, Body;
  if (!splitTransferKey(Key, Group, Body))
    return -1;
  // A quarter-ish of the serialization may differ and still count as
  // "near": generous, because a wrong-but-in-range seed only costs one
  // extra scored candidate — it can never change the winner.
  size_t Cutoff = std::max<size_t>(8, Body.size() / 10);
  std::lock_guard<std::mutex> Lock(TransferMu);
  auto It = TransferIndex.find(Group);
  if (It == TransferIndex.end())
    return -1;
  size_t BestDistance = Cutoff + 1;
  int BestSeed = -1;
  for (const auto &[NeighborBody, Winner] : It->second) {
    size_t D = structuralDistance(Body, NeighborBody, Cutoff);
    if (D < BestDistance) { // Strict: ties keep the first in body order.
      BestDistance = D;
      BestSeed = Winner;
    }
  }
  return BestDistance <= Cutoff ? BestSeed : -1;
}

void CompilerSession::recordTransferWinner(const std::string &Key,
                                           const KernelReport &Report) {
  if (Report.BestCandidateIndex < 0)
    return; // Fallback report — no candidate space to seed from.
  std::string Group, Body;
  if (!splitTransferKey(Key, Group, Body))
    return;
  std::lock_guard<std::mutex> Lock(TransferMu);
  std::map<std::string, int> &G = TransferIndex[Group];
  if (G.size() >= TransferGroupCap && !G.count(Body))
    return;
  G[Body] = Report.BestCandidateIndex;
}

CompileOptions CompilerSession::optionsWithSeed(const CompileOptions &Base,
                                                const std::string &Key) {
  CompileOptions Opts = Base;
  if (Opts.SeedCandidate < 0) {
    int Seed = transferSeedFor(Key);
    if (Seed >= 0) {
      Opts.SeedCandidate = Seed;
      TransferSeedsCount.fetch_add(1);
    }
  }
  return Opts;
}

//===----------------------------------------------------------------------===//
// The unified surface
//===----------------------------------------------------------------------===//

/// What the resolve step decided for one request.
struct CompilerSession::Resolution {
  /// MustCompute for a cold miss (the caller owns Ticket) and for Bypass
  /// (no cache entry, so Ticket and Fut stay empty).
  KernelCache::ResolveKind Kind = KernelCache::ResolveKind::MustCompute;
  std::shared_future<KernelReport> Fut;
  KernelCache::ComputeTicket Ticket;
  /// The cache_resolve span: what the compile and join_resume spans
  /// parent to, whichever thread they run on.
  obs::SpanContext Ctx;
};

/// What the cold-compile body produced; exactly one of Report (when Error
/// is empty) and Error is meaningful.
struct CompilerSession::ColdResult {
  KernelReport Report;
  std::exception_ptr Error;
  /// A local tune ran and succeeded (false when a peer served the report
  /// or the backend threw).
  bool Computed = false;
};

CompilerSession::Resolution
CompilerSession::resolve(const CompileRequest &Request, const std::string &Key,
                         double T0, const JobCallback &Finish) {
  Resolution R;
  obs::Span Span("cache_resolve");
  R.Ctx = obs::currentSpan();
  switch (Request.Options.Policy) {
  case CachePolicy::Bypass:
    // Never touches the cache: always a fresh compile with no entry to
    // publish through.
    FreshDispatchesCount.fetch_add(1);
    Span.annotate("outcome", "bypass");
    return R;
  case CachePolicy::Refresh:
    // Ready entries are dropped and recompiled; an in-flight compile is
    // left alone (it is fresh enough, and erasing it would break the
    // single-flight invariant its winner relies on).
    Cache.eraseReady(Key);
    break;
  case CachePolicy::Default:
    break;
  }
  // Registered only when the resolve joins an in-flight compile; fires on
  // the winner's thread once the entry resolves. A job with a Finish
  // callback owns one InFlight count, released here; the span must close
  // before jobFinished(): the decrement to zero releases stop()'s
  // quiesce() wait, after which the trace recorder is torn down.
  KernelCache::Waiter OnJoin = [this, Finish, Ctx = R.Ctx,
                                T0](const KernelReport *Report,
                                    std::exception_ptr Error) {
    {
      obs::Span Resume("join_resume", Ctx);
      if (Finish)
        Finish(Report, Error, /*Computed=*/false);
      JoinLatencyHist.record(steadyNowSeconds() - T0);
    }
    if (Finish)
      jobFinished();
  };
  R.Kind = Cache.resolveThen(Key, std::move(OnJoin), &R.Fut, &R.Ticket);
  switch (R.Kind) {
  case KernelCache::ResolveKind::Ready:
    InlineReadyHitsCount.fetch_add(1);
    WarmLatencyHist.record(steadyNowSeconds() - T0);
    Span.annotate("outcome", "hit");
    break;
  case KernelCache::ResolveKind::Joined:
    ContinuationJoinsCount.fetch_add(1);
    Span.annotate("outcome", "join");
    break;
  case KernelCache::ResolveKind::MustCompute:
    FreshDispatchesCount.fetch_add(1);
    Span.annotate("outcome", "miss");
    break;
  }
  return R;
}

CompilerSession::ColdResult
CompilerSession::compileCold(const CompileRequest &Request,
                             const std::string &Key,
                             KernelCache::ComputeTicket &Ticket, double T0,
                             std::atomic<size_t> *FreshCounter) {
  ColdResult Out;
  // The fleet probe comes first: a same-fingerprint peer that already
  // tuned this key hands the report over in milliseconds. Only Default
  // asks; Refresh wants a local tune and Bypass has no entry to fill.
  std::optional<KernelReport> Remote;
  if (Request.Options.Policy == CachePolicy::Default)
    if (ColdMissFetcher Fetch = missFetcher()) {
      obs::Span PeerFetch("peer_fetch");
      Remote = Fetch(Key);
      PeerFetch.annotate("hit", Remote ? 1 : 0);
    }
  if (Remote) {
    Out.Report = std::move(*Remote);
  } else {
    // The library itself aborts rather than throws, but user-registered
    // backends may throw; failing the ticket keeps the key retryable.
    try {
      obs::Span Codegen("codegen");
      Out.Report = Request.Work.compileWith(*Request.Backend, tuningPool(),
                                            optionsWithSeed(Request.Options,
                                                            Key));
      Out.Computed = true;
      // Counted before the result is published: the counter lives on the
      // frame of a caller (compileModel) that returns once every future
      // is ready.
      if (FreshCounter)
        FreshCounter->fetch_add(1);
    } catch (...) {
      Out.Error = std::current_exception();
    }
  }
  if (Ticket) {
    if (Out.Error) {
      Cache.fail(Key, Ticket, Out.Error);
    } else {
      recordTransferWinner(Key, Out.Report);
      {
        obs::Span Fulfill("fulfill");
        Cache.fulfill(Key, Ticket, Out.Report);
      }
      // Peer-served reports never announce, so the fleet cannot echo.
      if (Out.Computed)
        if (CompileObserver Notify = compileObserver())
          Notify(Key, Out.Report);
    }
  }
  // Any cold body is the cold path, a peer-served miss included.
  ColdLatencyHist.record(steadyNowSeconds() - T0);
  return Out;
}

KernelReport CompilerSession::compileKeyed(const CompileRequest &Request,
                                           const std::string &Key,
                                           bool *ComputedHere) {
  double T0 = steadyNowSeconds();
  if (ComputedHere)
    *ComputedHere = false;
  Resolution R = resolve(Request, Key, T0, /*Finish=*/nullptr);
  // Ready hits return at once; a join waits on this caller-owned thread
  // (the continuation records its latency on the winner's thread).
  if (R.Kind != KernelCache::ResolveKind::MustCompute)
    return R.Fut.get();
  obs::Span CompileSpan("compile", R.Ctx);
  ColdResult Cold = compileCold(Request, Key, R.Ticket, T0, nullptr);
  if (Cold.Error)
    std::rethrow_exception(Cold.Error);
  if (ComputedHere)
    *ComputedHere = Cold.Computed;
  return std::move(Cold.Report);
}

KernelReport CompilerSession::compile(const CompileRequest &Request,
                                      bool *ComputedHere) {
  return compileKeyed(Request, Request.cacheKey(), ComputedHere);
}

CompileJob CompilerSession::compileAsync(CompileRequest Request) {
  return dispatchAsync(std::move(Request), nullptr, nullptr);
}

CompileJob CompilerSession::compileAsyncThen(CompileRequest Request,
                                             JobCallback OnDone) {
  return dispatchAsync(std::move(Request), std::move(OnDone), nullptr);
}

void CompilerSession::jobFinished() {
  // Pair the decrement with the quiesce cv so a waiter parked on an
  // empty queue (job running on a worker, or a continuation pending on
  // another thread's compile) wakes promptly — and exactly once, when
  // the count actually reaches zero.
  if (InFlight.fetch_sub(1) == 1) {
    { std::lock_guard<std::mutex> Lock(QuiesceMu); }
    QuiesceCv.notify_all();
  }
}

CompileJob CompilerSession::dispatchAsync(CompileRequest Request,
                                          JobCallback Finish,
                                          std::atomic<size_t> *FreshCounter) {
  std::string Key = Request.cacheKey();
  double T0 = steadyNowSeconds();
  // Count the job before resolving: a registered continuation may fire
  // (and decrement) the instant the cache lock is released.
  InFlight.fetch_add(1);
  Resolution R = resolve(Request, Key, T0, Finish);
  switch (R.Kind) {
  case KernelCache::ResolveKind::Ready:
    // Warm hit: resolve inline on the submitting thread. A whole warm
    // model's worth of joins costs zero pool tasks.
    if (Finish)
      Finish(&R.Fut.get(), nullptr, /*Computed=*/false);
    jobFinished();
    return CompileJob(std::move(Key), std::move(R.Fut));
  case KernelCache::ResolveKind::Joined:
    // In-flight join: the winner's drain fires the continuation; no
    // thread, pool or otherwise, blocks waiting for it.
    if (!Finish)
      jobFinished(); // Future-only join: nothing left pending here.
    return CompileJob(std::move(Key), std::move(R.Fut));
  case KernelCache::ResolveKind::MustCompute:
    break;
  }

  // A miss runs the cold body on a pool worker. A Bypass job has no cache
  // entry, so a private promise backs its future.
  std::shared_ptr<std::promise<KernelReport>> Done;
  if (!R.Ticket) {
    Done = std::make_shared<std::promise<KernelReport>>();
    R.Fut = Done->get_future().share();
  }
  std::shared_future<KernelReport> Fut = R.Fut;
  Pool->submit([this, Request = std::move(Request), Key, R = std::move(R),
                Done, Finish = std::move(Finish), FreshCounter,
                T0]() mutable {
    // Every span in this task closes before the jobFinished() at the
    // bottom, for the teardown reason given in resolve().
    {
      obs::Span CompileSpan("compile", R.Ctx);
      ColdResult Cold = compileCold(Request, Key, R.Ticket, T0, FreshCounter);
      if (Done) {
        if (Cold.Error)
          Done->set_exception(Cold.Error);
        else
          Done->set_value(Cold.Report);
      }
      if (Finish)
        Finish(Cold.Error ? nullptr : &Cold.Report, Cold.Error,
               Cold.Computed);
    }
    jobFinished();
  });
  return CompileJob(std::move(Key), std::move(Fut));
}

void CompilerSession::quiesce() {
  // Help drain queued work from the calling thread first.
  while (InFlight.load() != 0 && Pool->runOne()) {
  }
  // Whatever remains is running on workers or pending as continuations of
  // someone else's compile. Park untimed: every finishing job runs
  // jobFinished(), whose decrement-to-zero is published under QuiesceMu
  // before the notify — exact wakeup, no timed polling.
  std::unique_lock<std::mutex> Lock(QuiesceMu);
  QuiesceCv.wait(Lock, [this] { return InFlight.load() == 0; });
}

std::vector<CompileJob>
CompilerSession::compileAllAsync(std::vector<CompileRequest> Requests) {
  return compileAllAsyncCounted(std::move(Requests), nullptr);
}

std::vector<CompileJob>
CompilerSession::compileAllAsyncCounted(std::vector<CompileRequest> Requests,
                                        std::atomic<size_t> *FreshCounter) {
  // Submit higher-priority requests first (stable: ties keep caller
  // order), but hand the jobs back in the original order.
  std::vector<size_t> Order(Requests.size());
  std::iota(Order.begin(), Order.end(), size_t{0});
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Requests[A].Options.Priority > Requests[B].Options.Priority;
  });
  std::vector<CompileJob> Jobs(Requests.size());
  for (size_t Slot : Order)
    Jobs[Slot] =
        dispatchAsync(std::move(Requests[Slot]), nullptr, FreshCounter);
  return Jobs;
}

ModelCompileResult CompilerSession::compileModel(const Model &M,
                                                 const std::string &TargetId,
                                                 const CompileOptions &Options) {
  return compileModel(M, *TargetRegistry::instance().get(TargetId), Options);
}

ModelCompileResult
CompilerSession::compileModel(const Model &M, const TargetBackend &Backend,
                              const CompileOptions &Options) {
  auto Start = std::chrono::steady_clock::now();
  ModelCompileResult Result;
  TargetBackendRef Borrowed = borrow(Backend);

  // Canonical key per layer; isomorphic layers (and layers compiled by a
  // previous model on the same backend) collapse onto one cache entry.
  std::vector<std::string> Keys;
  Keys.reserve(M.Convs.size());
  std::unordered_map<std::string, size_t> FirstLayerOf;
  std::vector<size_t> DistinctLayers; ///< Index of each key's first layer.
  for (size_t I = 0; I < M.Convs.size(); ++I) {
    Keys.push_back(
        CompileRequest(Workload::conv2d(M.Convs[I]), Borrowed, Options)
            .cacheKey());
    if (FirstLayerOf.emplace(Keys.back(), I).second)
      DistinctLayers.push_back(I);
  }
  Result.DistinctShapes = DistinctLayers.size();

  // Only entries that existed before this call count as hits; intra-model
  // duplicates of a cold shape are deduplicated work, not cache hits. A
  // refreshing compile is about to drop those entries (and a bypassing
  // one ignores them), so both report zero.
  if (Options.Policy == CachePolicy::Default)
    for (const std::string &Key : Keys)
      if (Cache.contains(Key))
        ++Result.CacheHitLayers;

  // Compile every distinct shape into a local key -> report map — cache
  // policy (including Bypass) is handled per request. Holding the
  // reports locally keeps the per-layer fan-out independent of the
  // cache, so LRU caps smaller than the model and concurrent clear()s
  // can never force a mid-collection re-tune.
  std::unordered_map<std::string, KernelReport> Reports;
  Reports.reserve(DistinctLayers.size());
  std::atomic<size_t> FreshCompiles{0};
  if (Config.ParallelShapes && DistinctLayers.size() > 1) {
    // Submit all, then join: distinct shapes tune concurrently on the
    // pool; while joining, this thread helps drain pending tasks so a
    // small pool still tunes caller+workers wide.
    std::vector<CompileRequest> Requests;
    Requests.reserve(DistinctLayers.size());
    for (size_t LayerIndex : DistinctLayers)
      Requests.emplace_back(Workload::conv2d(M.Convs[LayerIndex]), Borrowed,
                            Options);
    std::vector<CompileJob> Jobs =
        compileAllAsyncCounted(std::move(Requests), &FreshCompiles);
    // Join *every* job before any rethrow: in-flight tasks hold a
    // non-owning reference to the caller's backend, so unwinding while
    // they still run would dangle it.
    std::exception_ptr FirstFailure;
    for (size_t Slot = 0; Slot < Jobs.size(); ++Slot) {
      while (!Jobs[Slot].ready() && Pool->runOne()) {
      }
      try {
        Reports.emplace(Keys[DistinctLayers[Slot]], Jobs[Slot].get());
      } catch (...) {
        if (!FirstFailure)
          FirstFailure = std::current_exception();
      }
    }
    if (FirstFailure)
      std::rethrow_exception(FirstFailure);
  } else {
    for (size_t LayerIndex : DistinctLayers) {
      bool Computed = false;
      Reports.emplace(
          Keys[LayerIndex],
          compileKeyed(CompileRequest(Workload::conv2d(M.Convs[LayerIndex]),
                                      Borrowed, Options),
                       Keys[LayerIndex], &Computed));
      if (Computed)
        FreshCompiles.fetch_add(1);
    }
  }
  Result.FreshCompiles = FreshCompiles.load();

  Result.Layers.reserve(M.Convs.size());
  for (const std::string &Key : Keys)
    Result.Layers.push_back(Reports.at(Key));

  Result.WallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  return Result;
}

//===----------------------------------------------------------------------===//
// Cache persistence
//===----------------------------------------------------------------------===//

std::string CompilerSession::persistenceFingerprint() {
  std::vector<std::string> Salts;
  for (const TargetBackendRef &B : TargetRegistry::instance().all())
    Salts.push_back(B->cacheSalt());
  std::sort(Salts.begin(), Salts.end());
  // Persisted reports depend on the tuner's candidate spaces as much as
  // on machine parameters, so the space sizes are folded in — a build
  // that widens either space rejects older files. The "-v1" tag must be
  // bumped by hand when the cost model or search semantics change in a
  // way the space sizes don't reflect.
  std::string Fp = "unit-kernel-cache-fp-v1|cpu-space:" +
                   std::to_string(defaultCpuTuningPairs().size()) +
                   "|gpu-space:" +
                   std::to_string(defaultGpuTuningConfigs().size());
  for (const std::string &Salt : Salts)
    Fp += ";" + Salt;
  return Fp;
}

std::optional<size_t>
CompilerSession::saveCache(const std::string &Path) const {
  return Cache.saveFile(Path, persistenceFingerprint());
}

KernelCache::LoadResult CompilerSession::loadCache(const std::string &Path) {
  return Cache.loadFile(Path, persistenceFingerprint());
}
