//===- runtime/CompilerSession.cpp -----------------------------------------===//

#include "runtime/CompilerSession.h"

#include "obs/Trace.h"
#include "support/Time.h"
#include "tuner/TuningSpace.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

using namespace unit;

CompilerSession::CompilerSession(SessionConfig ConfigIn)
    : Config(std::move(ConfigIn)),
      Cache(Config.CacheCapacity, Config.CacheCapacityBytes),
      Pool(std::make_unique<ThreadPool>(Config.Threads)) {}

CompilerSession::~CompilerSession() = default;

namespace {

/// Non-owning handle for borrowed-backend entry points (compileModel with
/// a const reference joins every job before returning, so the borrow is
/// always outlived).
TargetBackendRef borrow(const TargetBackend &Backend) {
  return TargetBackendRef(&Backend, [](const TargetBackend *) {});
}

} // namespace

//===----------------------------------------------------------------------===//
// Transfer tuning (docs/TUNING.md)
//===----------------------------------------------------------------------===//

CompileOptions CompilerSession::optionsWithSeed(const CompileOptions &Base,
                                                const std::string &Key) {
  CompileOptions Opts = Base;
  if (Opts.SeedCandidate < 0) {
    int Seed = Transfer.nearest(Key);
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
  /// MustCompute for a cold miss: the caller owns Ticket.
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
CompilerSession::resolve(const std::string &Key, double T0,
                         const JobCallback &Finish) {
  Resolution R;
  obs::Span Span("cache_resolve");
  R.Ctx = obs::currentSpan();
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
  // tuned this key hands the report over in milliseconds.
  std::optional<KernelReport> Remote;
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
  if (Out.Error) {
    Cache.fail(Key, Ticket, Out.Error);
  } else {
    Transfer.record(Key, Out.Report.BestCandidateIndex);
    {
      obs::Span Fulfill("fulfill");
      Cache.fulfill(Key, Ticket, Out.Report);
    }
    // Peer-served reports never announce, so the fleet cannot echo.
    if (Out.Computed)
      if (CompileObserver Notify = compileObserver())
        Notify(Key, Out.Report);
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
  Resolution R = resolve(Key, T0, /*Finish=*/nullptr);
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
  Resolution R = resolve(Key, T0, Finish);
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

  // A miss runs the cold body on a pool worker.
  std::shared_future<KernelReport> Fut = R.Fut;
  Pool->submit([this, Request = std::move(Request), Key, R = std::move(R),
                Finish = std::move(Finish), FreshCounter, T0]() mutable {
    // Every span in this task closes before the jobFinished() at the
    // bottom, for the teardown reason given in resolve().
    {
      obs::Span CompileSpan("compile", R.Ctx);
      ColdResult Cold = compileCold(Request, Key, R.Ticket, T0, FreshCounter);
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
  // duplicates of a cold shape are deduplicated work, not cache hits.
  for (const std::string &Key : Keys)
    if (Cache.contains(Key))
      ++Result.CacheHitLayers;

  // Compile every distinct shape into a local key -> report map. Holding
  // the reports locally keeps the per-layer fan-out independent of the
  // cache, so LRU caps smaller than the model and concurrent clear()s
  // can never force a mid-collection re-tune.
  std::unordered_map<std::string, KernelReport> Reports;
  Reports.reserve(DistinctLayers.size());
  std::atomic<size_t> FreshCompiles{0};
  if (Config.ParallelShapes && DistinctLayers.size() > 1) {
    // Submit all, then join: distinct shapes tune concurrently on the
    // pool; while joining, this thread helps drain pending tasks so a
    // small pool still tunes caller+workers wide.
    std::vector<CompileJob> Jobs;
    Jobs.reserve(DistinctLayers.size());
    for (size_t LayerIndex : DistinctLayers)
      Jobs.push_back(dispatchAsync(
          CompileRequest(Workload::conv2d(M.Convs[LayerIndex]), Borrowed,
                         Options),
          nullptr, &FreshCompiles));
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
