//===- runtime/CompilerSession.h - Reusable concurrent compile layer ------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reusable compilation layer between graph executors and kernel
/// search: one object owning the shared KernelCache and a work-stealing
/// thread pool, exposing the unified request surface —
///
///   compile(CompileRequest)       blocking
///   compileAsync(CompileRequest)  future-based CompileJob
///   compileModel(model, target)   submit every distinct layer, then join
///
/// Every workload kind (conv2d / conv3d / dense-as-1x1 / raw op) flows
/// through the same path, and targets are string ids resolved through the
/// TargetRegistry (the legacy per-kind compile* shims were removed once
/// every caller migrated). Distinct shapes of a model tune concurrently
/// and tuning candidates are scored in parallel, but every winner is
/// chosen by an index-stable argmin — parallel and sequential modes
/// produce byte-identical reports.
///
/// The cache persists: saveCache() serializes every surviving entry under
/// a fingerprint of the registered machines, and loadCache() rejects
/// stale or cross-machine files, so a repeat run starts with zero tuning.
///
/// Engines (graph/Executor.h) take the session they compile through;
/// engines handed the same session share its cache, so a resnet50
/// compile warms resnet18's kernels and vice versa.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_RUNTIME_COMPILERSESSION_H
#define UNIT_RUNTIME_COMPILERSESSION_H

#include "obs/Histogram.h"
#include "runtime/CompileRequest.h"
#include "runtime/KernelCache.h"
#include "runtime/TransferIndex.h"
#include "support/ThreadPool.h"
#include "target/TargetRegistry.h"

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace unit {

struct SessionConfig {
  unsigned Threads = 0;           ///< Pool size; 0 = hardware concurrency.
  bool ParallelShapes = true;     ///< Tune distinct model shapes concurrently.
  bool ParallelCandidates = true; ///< Score tuning candidates concurrently.
  size_t CacheCapacity = 0;       ///< LRU entry cap; 0 = unbounded.
  /// LRU byte cap over the cache's resident-byte accounting; 0 =
  /// unbounded. Enforced on insert, coldest ready entries first
  /// (in-flight compiles are never evicted). Both caps may be set; each
  /// is enforced independently.
  size_t CacheCapacityBytes = 0;
};

/// Counters describing how the session has been resolving requests. The
/// three resolution counters count every resolution, blocking and async
/// alike. All monotonic over the session's lifetime.
struct SessionStats {
  /// Joins of an in-flight compile. Each registers a continuation the
  /// winner drains; a blocking caller also waits on its own thread.
  uint64_t ContinuationJoins = 0;
  /// Requests served by a ready cache entry, resolved inline on the
  /// calling thread with no pool task.
  uint64_t InlineReadyHits = 0;
  /// Requests that won their key and so ran the cold body: on a pool
  /// worker for async jobs, inline for blocking calls.
  uint64_t FreshDispatches = 0;
  /// Cold compiles whose tuner search was seeded from the cached winner
  /// of a near-isomorphic key (transfer tuning, docs/TUNING.md). Seeding
  /// never changes the compiled report — only how many candidates the
  /// pruned search has to score.
  uint64_t TransferSeeds = 0;
};

/// What compiling a whole model produced.
struct ModelCompileResult {
  std::vector<KernelReport> Layers; ///< One per Model::Convs entry.
  size_t DistinctShapes = 0;        ///< Kernels actually visited.
  size_t CacheHitLayers = 0;        ///< Layers whose entry predated this call
                                    ///< (approximate under concurrent cold
                                    ///< submissions — the probe races).
  size_t FreshCompiles = 0;         ///< Kernels this call actually compiled —
                                    ///< race-free (from the compile itself,
                                    ///< not a cache probe); single-flight
                                    ///< joins of concurrent callers are 0.
  double WallSeconds = 0.0;         ///< Measured compile wall time (telemetry).
};

class CompilerSession {
public:
  /// Fleet hook: consulted by the winning thread of a cold compile before
  /// it tunes. Returning a report fulfills the in-flight entry with it —
  /// callers observe a cache hit (Computed=false), no tuner runs. See
  /// setColdMissFetcher.
  using ColdMissFetcher =
      std::function<std::optional<KernelReport>(const std::string &Key)>;
  /// Fleet hook: fired after every successful fresh compile (never for
  /// cache hits, joins, or peer-fetched entries). See setCompileObserver.
  using CompileObserver =
      std::function<void(const std::string &Key, const KernelReport &Report)>;
  /// Completion callback for compileAsyncThen: exactly one of \p Report
  /// and \p Error is non-null/non-empty; \p Computed mirrors compile()'s
  /// ComputedHere (true only when the job ran the compile itself).
  /// Invoked on whichever thread resolves the job: the *submitting*
  /// thread (ready cache hits fire before compileAsyncThen returns), the
  /// winner's completing thread (single-flight joins, drained as
  /// continuations), or a pool worker (fresh compiles). Never invoked
  /// while the session holds an internal lock. Keep it short and never
  /// call back into blocking session APIs from inside it.
  using JobCallback = std::function<void(
      const KernelReport *Report, std::exception_ptr Error, bool Computed)>;

private:
  SessionConfig Config;
  KernelCache Cache;
  /// Fleet hooks (guarded by HooksMu; read per cold compile, so the lock
  /// is off every warm path). Declared before Pool: workers read them.
  mutable std::mutex HooksMu;
  ColdMissFetcher MissFetcher;
  CompileObserver Observer;
  /// Async compile tasks submitted but not yet finished. Long-lived hosts
  /// (the CompileServer) quiesce() on this before tearing anything down.
  /// Declared (with the cv pair below) before Pool: the pool's destructor
  /// joins workers that still touch them, so they must be destroyed
  /// after the join.
  std::atomic<size_t> InFlight{0};
  /// Wakes quiesce() when the last in-flight job finishes while the
  /// waiter is parked on an empty queue.
  std::mutex QuiesceMu;
  std::condition_variable QuiesceCv;
  /// SessionStats counters (see sessionStats()); declared before Pool for
  /// the same destruction-order reason as the quiesce state above.
  std::atomic<uint64_t> ContinuationJoinsCount{0};
  std::atomic<uint64_t> InlineReadyHitsCount{0};
  std::atomic<uint64_t> FreshDispatchesCount{0};
  std::atomic<uint64_t> TransferSeedsCount{0};
  /// Transfer-tuning index (runtime/TransferIndex.h): cache key ->
  /// winning candidate index, grouped by the key's `target|spechash|kind|`
  /// prefix. Touched only on cold compiles: the nearest-neighbor scan
  /// takes its shared lock, so concurrent cold compiles scan together,
  /// and recording a winner takes the exclusive one. Declared before
  /// Pool: workers record winners into it.
  TransferIndex Transfer;
  /// Submit-to-resolve latency histograms (docs/OBSERVABILITY.md), split
  /// by how the request resolved: fresh compile (cold, including
  /// peer-fetched misses), ready cache hit (warm), continuation join.
  /// Wait-free to record; declared before Pool — workers record into
  /// them, so they must outlive the worker join.
  obs::LatencyHistogram ColdLatencyHist;
  obs::LatencyHistogram WarmLatencyHist;
  obs::LatencyHistogram JoinLatencyHist;
  std::unique_ptr<ThreadPool> Pool;

  /// The pool handed to tuners, or null when candidate-parallelism is off.
  ThreadPool *tuningPool() { return Config.ParallelCandidates ? Pool.get() : nullptr; }

  struct Resolution;
  struct ColdResult;

  /// The one resolve step every entry point runs first: the
  /// cache_resolve span, the hit/join/miss counters and the warm
  /// histogram. A join registers a continuation that records the join
  /// latency and, for async jobs, fires \p Finish and releases the job's
  /// InFlight count; blocking callers pass a null \p Finish and wait on
  /// the future themselves.
  Resolution resolve(const std::string &Key, double T0,
                     const JobCallback &Finish);

  /// The one cold-compile body, run by whoever owns a miss: the peer
  /// probe, transfer-seeded codegen, the transfer-index record, the
  /// fulfill/fail that publishes the entry through \p Ticket, the
  /// observer and the cold histogram. \p FreshCounter, when set, counts
  /// a successful local compile. Never throws: a backend error comes
  /// back in ColdResult::Error.
  ColdResult compileCold(const CompileRequest &Request, const std::string &Key,
                         KernelCache::ComputeTicket &Ticket, double T0,
                         std::atomic<size_t> *FreshCounter);

  /// The blocking entry point under \p Key (already derived): resolve,
  /// then wait for a join on this thread or run a miss's cold body inline
  /// — no thread hop. Shared by compile() and sequential compileModel().
  KernelReport compileKeyed(const CompileRequest &Request,
                            const std::string &Key,
                            bool *ComputedHere = nullptr);

  /// \p Base with SeedCandidate filled from the transfer index when the
  /// caller left it unset: the winning candidate of the structurally
  /// nearest already-compiled key in \p Key's group, if any is within the
  /// distance cutoff. Called only on cold compile paths.
  CompileOptions optionsWithSeed(const CompileOptions &Base,
                                 const std::string &Key);

  /// The async entry point behind compileAsync, compileAsyncThen and
  /// parallel compileModel: the same resolve step, but it never blocks a
  /// pool thread — ready hits fire \p Finish inline on the submitting
  /// thread, joins ride the continuation the winner drains, and only a
  /// miss (the key's winner) submits a pool task running the cold body.
  /// \p Finish may be null (future-only callers). \p FreshCounter, when
  /// set, is incremented iff the job ran the compile itself: the
  /// race-free accounting compileModel aggregates into FreshCompiles.
  CompileJob dispatchAsync(CompileRequest Request, JobCallback Finish,
                           std::atomic<size_t> *FreshCounter);

  /// Marks one async job finished: decrements InFlight and, when it was
  /// the last one, wakes quiesce() — exact notification, no polling.
  void jobFinished();

  /// Snapshot copies of the fleet hooks (cheap: one mutex hop per cold
  /// compile; warm hits never get here).
  ColdMissFetcher missFetcher() const {
    std::lock_guard<std::mutex> Lock(HooksMu);
    return MissFetcher;
  }
  CompileObserver compileObserver() const {
    std::lock_guard<std::mutex> Lock(HooksMu);
    return Observer;
  }

public:
  explicit CompilerSession(SessionConfig Config = {});
  ~CompilerSession();

  CompilerSession(const CompilerSession &) = delete;
  CompilerSession &operator=(const CompilerSession &) = delete;

  KernelCache &cache() { return Cache; }
  ThreadPool &pool() { return *Pool; }
  const SessionConfig &config() const { return Config; }

  /// Async compile tasks currently submitted or running — the session's
  /// queue depth (a stats() field of the compile server).
  size_t inFlightJobs() const { return InFlight.load(); }

  /// Blocks until every submitted async compile has finished, helping
  /// drain the pool from the calling thread, then parking on an untimed
  /// wait the final continuation wakes exactly (no timed polling when
  /// idle). Jobs submitted *while* quiescing are waited for too; the
  /// caller is responsible for stopping new submissions first
  /// (graceful-shutdown order: stop intake, then quiesce, then persist).
  void quiesce();

  /// Continuation-engine counters; see SessionStats.
  SessionStats sessionStats() const {
    SessionStats S;
    S.ContinuationJoins = ContinuationJoinsCount.load();
    S.InlineReadyHits = InlineReadyHitsCount.load();
    S.FreshDispatches = FreshDispatchesCount.load();
    S.TransferSeeds = TransferSeedsCount.load();
    return S;
  }

  /// Submit-to-resolve latency distributions, split by resolution kind;
  /// the server's `metrics` message serves these as the
  /// unit_compile_{cold,warm,join}_seconds families.
  struct LatencySnapshots {
    obs::HistogramSnapshot Cold, Warm, Join;
  };
  LatencySnapshots latencySnapshots() const {
    return {ColdLatencyHist.snapshot(), WarmLatencyHist.snapshot(),
            JoinLatencyHist.snapshot()};
  }

  //===--------------------------------------------------------------------===//
  // Fleet hooks
  //===--------------------------------------------------------------------===//

  /// Installs \p Fetch as the cold-miss fetcher. The single-flight winner
  /// of a cold compile calls it (on its own thread — a blocking network
  /// probe is fine) before invoking the tuner; a returned report fulfills
  /// the entry as if it had been cached all along, so every joined waiter
  /// resolves and "computed here" stays false. The compile server wires
  /// PeerManager::fetchMissing in here; pass nullptr to uninstall.
  void setColdMissFetcher(ColdMissFetcher Fetch) {
    std::lock_guard<std::mutex> Lock(HooksMu);
    MissFetcher = std::move(Fetch);
  }

  /// Installs \p Notify to observe every successful fresh compile (the
  /// single-flight winner, after the cache entry is fulfilled). Hits,
  /// joins, and peer-fetched entries never fire it — so announcing
  /// observed reports to peers cannot echo. Runs on the compiling
  /// thread; keep it non-blocking (PeerManager::announce just enqueues).
  void setCompileObserver(CompileObserver Notify) {
    std::lock_guard<std::mutex> Lock(HooksMu);
    Observer = std::move(Notify);
  }

  //===--------------------------------------------------------------------===//
  // The unified compile surface
  //===--------------------------------------------------------------------===//

  /// Compiles one request under its tuning budget.
  /// \p ComputedHere, when non-null, reports whether this call ran a
  /// fresh compile (true) or was served by the cache — a ready entry or
  /// a single-flight join of a concurrent compile (false). Race-free,
  /// unlike probing the cache before compiling; the server's "cached"
  /// response flag and compiled-layer accounting ride on it.
  KernelReport compile(const CompileRequest &Request,
                       bool *ComputedHere = nullptr);

  /// Submits one request to the session pool and returns immediately. A
  /// ready or in-flight cache entry is joined without a pool round-trip.
  /// CompileJob::get() rethrows any exception the backend raised.
  CompileJob compileAsync(CompileRequest Request);

  /// compileAsync plus a completion hook: \p OnDone fires exactly once
  /// when the job resolves, including for cache hits and single-flight
  /// joins of another caller's in-flight compile. No variant ever parks a
  /// pool thread on a join — hits resolve inline and joins ride the
  /// winner's completion (see SessionStats) — so pending callbacks cost a
  /// list slot, not a worker. This is what lets an event-driven host —
  /// the compile server's streaming mode — push results as they land
  /// while keeping thousands of tickets in flight over a small pool.
  CompileJob compileAsyncThen(CompileRequest Request, JobCallback OnDone);

  /// Compiles every conv layer of \p M by submitting all distinct shapes
  /// async and then joining ("submit all, then join") when the config
  /// allows shape parallelism; sequential otherwise. Per-layer reports
  /// are byte-identical between the two modes. \p TargetId resolves
  /// through the process-wide TargetRegistry.
  ModelCompileResult compileModel(const Model &M, const std::string &TargetId,
                                  const CompileOptions &Options = {});
  ModelCompileResult compileModel(const Model &M, const TargetBackend &Backend,
                                  const CompileOptions &Options = {});

  //===--------------------------------------------------------------------===//
  // Cache persistence
  //===--------------------------------------------------------------------===//

  /// Fingerprint the session's cache files are versioned under: a format
  /// tag plus every registered backend's cache salt (target id + spec
  /// hash, which folds in machine parameters, quantization scheme, and
  /// intrinsic descriptions) — so a file written under different machine
  /// models, a different spec revision, or a different format revision is
  /// rejected on load.
  static std::string persistenceFingerprint();

  /// Serializes the surviving ready cache entries to \p Path. Returns the
  /// number of entries written, or std::nullopt on I/O failure.
  std::optional<size_t> saveCache(const std::string &Path) const;

  /// Merges a saveCache() file into this session's cache; stale,
  /// corrupted, or cross-machine files load zero entries.
  KernelCache::LoadResult loadCache(const std::string &Path);
};

} // namespace unit

#endif // UNIT_RUNTIME_COMPILERSESSION_H
