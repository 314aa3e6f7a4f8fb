//===- runtime/CompileOptions.h - Per-request compilation knobs -----------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The option block a CompileRequest carries alongside its Workload and
/// target: the tuning budget and the tuner's search hints.
/// Lives in its own dependency-free header so TargetBackend signatures can
/// thread it down into the tuner without pulling in the request types.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_RUNTIME_COMPILEOPTIONS_H
#define UNIT_RUNTIME_COMPILEOPTIONS_H

namespace unit {

struct CompileOptions {
  /// Tuning budget: cap on candidates the tuner scores; any value <= 0
  /// means the full space (the tuner's own convention). A capped request
  /// caches under a distinct key so a budgeted report can never shadow
  /// (or be shadowed by) a full-search one.
  int MaxCandidates = -1;

  /// Early-exit pruning in the tuner: skip candidates whose admissible
  /// latency lower bound already exceeds the running best. The compiled
  /// report is bit-identical to the exhaustive search (docs/TUNING.md),
  /// so this knob — like SeedCandidate — is excluded from the cache key.
  bool PruneSearch = true;

  /// Transfer seed: candidate-space index the tuner scores first, so
  /// pruning starts with a strong running best. < 0 = none. Sessions fill
  /// this from the cached winners of near-isomorphic keys; it changes
  /// which candidates get scored, never which one wins.
  int SeedCandidate = -1;
};

} // namespace unit

#endif // UNIT_RUNTIME_COMPILEOPTIONS_H
