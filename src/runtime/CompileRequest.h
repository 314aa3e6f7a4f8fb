//===- runtime/CompileRequest.h - Unified compile request + async job -----===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one shape every compilation takes: a CompileRequest bundles the
/// Workload to compile, the TargetBackend to compile it for (resolvable
/// from a string target id through the TargetRegistry), and the
/// CompileOptions governing the tuning budget.
/// CompilerSession::compile(request) runs it synchronously;
/// compileAsync(request) returns a future-based CompileJob so callers
/// overlap graph pricing with kernel tuning instead of blocking per layer.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_RUNTIME_COMPILEREQUEST_H
#define UNIT_RUNTIME_COMPILEREQUEST_H

#include "runtime/CompileOptions.h"
#include "runtime/Workload.h"
#include "target/TargetRegistry.h"

#include <chrono>
#include <future>
#include <string>
#include <utility>

namespace unit {

struct CompileRequest {
  Workload Work;
  TargetBackendRef Backend;
  CompileOptions Options;

  CompileRequest(Workload Work, TargetBackendRef Backend,
                 CompileOptions Options = {})
      : Work(std::move(Work)), Backend(std::move(Backend)),
        Options(Options) {}

  /// Resolves the target id through the process-wide TargetRegistry
  /// (fatal-errors on unknown ids; unvalidated input resolves through
  /// TargetRegistry::lookup first).
  CompileRequest(Workload Work, const std::string &TargetId,
                 CompileOptions Options = {})
      : Work(std::move(Work)),
        Backend(TargetRegistry::instance().get(TargetId)), Options(Options) {}

  /// The request's cache key: the workload's canonical key on the backend
  /// (prefixed by the backend's spec-hash salt), plus a budget marker
  /// when the tuning space is capped — a budgeted report must never
  /// shadow (or be shadowed by) a full-search one. Matches the tuner's
  /// convention: MaxCandidates <= 0 is the full space, so only a positive
  /// budget salts the key.
  std::string cacheKey() const {
    std::string Key = Work.cacheKey(*Backend);
    if (Options.MaxCandidates > 0)
      Key += "|budget" + std::to_string(Options.MaxCandidates);
    return Key;
  }
};

/// Future-based handle on one submitted compilation. Copyable; all copies
/// observe the same result. get() rethrows any exception the backend's
/// compile raised (the cache entry is evicted on exception, so a failed
/// key can be retried).
class CompileJob {
  std::string Key;
  std::shared_future<KernelReport> Fut;

public:
  CompileJob() = default;
  CompileJob(std::string Key, std::shared_future<KernelReport> Fut)
      : Key(std::move(Key)), Fut(std::move(Fut)) {}

  bool valid() const { return Fut.valid(); }
  bool ready() const {
    return Fut.valid() &&
           Fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  }
  void wait() const {
    if (Fut.valid())
      Fut.wait();
  }
  /// Blocks until compiled; rethrows the compile's exception on failure.
  const KernelReport &get() const { return Fut.get(); }
  /// The cache key the job resolves under (diagnostics / tests).
  const std::string &key() const { return Key; }
};

} // namespace unit

#endif // UNIT_RUNTIME_COMPILEREQUEST_H
