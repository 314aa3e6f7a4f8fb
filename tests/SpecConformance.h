//===- tests/SpecConformance.h - Shared target-spec conformance gauntlet --===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
// The gauntlet every registered spec-backed target must survive
// (tests/test_specfile.cpp runs it over builtins, file specs, and
// wire-registered specs alike):
//
//   1. JSON round-trip: serializeSpec -> dump -> parseSpecText produces a
//      spec with the identical hash and cache salt, and re-serializing
//      the parsed spec reproduces the document byte-for-byte (fixpoint).
//   2. Zoo sample: a deterministic random sample of non-depthwise conv
//      layers from the paper model zoo tensorizes on the target.
//   3. Revision distinctness: a one-field cost revision of the spec moves
//      the spec hash, the conv cache keys, and the session persistence
//      fingerprint — and re-registering the original restores the
//      fingerprint exactly (no residue).
//   4. Wire: the target is advertised over the socket with the same spec
//      hash and provenance the registry holds, and a conv compiled over
//      the wire equals the in-process compile bit-for-bit.
//   5. Analytic scoring: for the zoo sample, the tuner's arithmetic score
//      of every candidate is bit-identical to the cost model run on the
//      candidate's built plan, and the winner's stats equal the rebuilt
//      winner's. A spec whose operand layout makes a candidate's load
//      count differ from the reorganized plan's fails here. The load
//      count itself must equal the piece count of the operands the
//      Replacer generates, with every role checked against strides the
//      check derives on its own (checkLoadCountParity).
//
//===----------------------------------------------------------------------===//

#ifndef UNIT_TESTS_SPECCONFORMANCE_H
#define UNIT_TESTS_SPECCONFORMANCE_H

#include "LinearIndexOracle.h"
#include "core/Inspector.h"
#include "core/OperandGen.h"
#include "graph/Layout.h"
#include "ir/ExprUtil.h"
#include "models/ModelZoo.h"
#include "runtime/CompilerSession.h"
#include "server/CompileClient.h"
#include "target/SpecFile.h"
#include "target/TargetRegistry.h"
#include "tir/Lower.h"
#include "tuner/Tuner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <vector>

namespace unit {
namespace testutil {

/// A deterministic sample of \p Count non-depthwise conv layers drawn
/// from the whole paper zoo. Fixed seed: the gauntlet must fail the same
/// way on every run.
inline std::vector<ConvLayer> sampleZooConvs(size_t Count,
                                             uint32_t Seed = 20260808) {
  std::vector<ConvLayer> All;
  for (const Model &M : paperModels())
    for (const ConvLayer &L : M.Convs)
      if (!L.Depthwise)
        All.push_back(L);
  std::mt19937 Rng(Seed);
  std::vector<ConvLayer> Out;
  std::uniform_int_distribution<size_t> Pick(0, All.size() - 1);
  for (size_t I = 0; I < Count; ++I)
    Out.push_back(All[Pick(Rng)]);
  return Out;
}

/// The ids of the seven shipped targets: the five builtins and the two
/// spec files under specs/, which this registers (again) first.
inline std::vector<std::string> shippedTargetIds() {
  for (const char *File :
       {"specs/fixed16-dma.json", "specs/nvgpu-wmma-s8.json"}) {
    std::string Err;
    EXPECT_NE(registerSpecFile(std::string(UNIT_REPO_ROOT) + "/" + File,
                               &Err),
              nullptr)
        << Err;
  }
  return {"x86",     "arm",         "nvgpu",   "x86-amx",
          "arm-sve", "fixed16-dma", "nvgpu-s8"};
}

/// Gauntlet stage 1: the hash-preserving JSON round-trip.
inline void checkSpecRoundTrip(const TargetSpec &Spec) {
  Json Doc = serializeSpec(Spec);
  std::string Text = Doc.dump();
  TargetSpec Parsed;
  std::string Err;
  ASSERT_TRUE(parseSpecText(Text, Parsed, &Err))
      << Spec.Id << ": " << Err;
  EXPECT_EQ(Parsed.Id, Spec.Id);
  EXPECT_EQ(Parsed.hash(), Spec.hash())
      << Spec.Id << ": the JSON round-trip moved the spec hash — cache "
      << "keys and persistence fingerprints would no longer match";
  EXPECT_EQ(Parsed.cacheSalt(), Spec.cacheSalt());
  EXPECT_EQ(serializeSpec(Parsed).dump(), Text)
      << Spec.Id << ": serialize(parse(doc)) is not a fixpoint";
}

/// Gauntlet stage 2: the target tensorizes a random zoo sample.
inline void checkSpecTensorizesZooSample(const TargetSpec &Spec,
                                         size_t SampleSize = 6) {
  TargetBackendRef Backend = TargetRegistry::instance().get(Spec.Id);
  ASSERT_NE(Backend, nullptr);
  for (const ConvLayer &L : sampleZooConvs(SampleSize)) {
    KernelReport R = Backend->compileConv(L, /*Pool=*/nullptr);
    EXPECT_TRUE(R.Tensorized)
        << Spec.Id << " failed to tensorize zoo layer " << L.Name << " ("
        << L.InC << "x" << L.InH << "x" << L.InW << " -> " << L.OutC << ")";
  }
}

/// A copy of \p Doc with intrinsics[0].cost.latency_cycles bumped — the
/// smallest spec revision an operator would actually ship (a remeasured
/// cost table).
inline Json bumpFirstIntrinsicCost(const Json &Doc) {
  const Json *Intrs = Doc.get("intrinsics");
  Json NewIntrs = Json::array();
  for (size_t I = 0; I < Intrs->items().size(); ++I) {
    Json Item = Intrs->items()[I];
    if (I == 0) {
      Json Cost = *Item.get("cost");
      Cost.set("latency_cycles", Cost.num("latency_cycles") + 1.0);
      Item.set("cost", std::move(Cost));
    }
    NewIntrs.push(std::move(Item));
  }
  Json Revised = Doc;
  Revised.set("intrinsics", std::move(NewIntrs));
  return Revised;
}

/// Gauntlet stage 3: a spec revision moves every derived identity, and
/// rolling it back leaves no residue. Re-registers the target twice;
/// restores the original registration (and its provenance) before
/// returning.
inline void checkSpecRevisionDistinctness(const TargetSpec &Spec) {
  TargetRegistry &Registry = TargetRegistry::instance();
  SpecSource Source = Registry.specSourceFor(Spec.Id);
  std::string Fp0 = CompilerSession::persistenceFingerprint();

  Json Revised = bumpFirstIntrinsicCost(serializeSpec(Spec));
  TargetSpec RevisedSpec;
  std::string Err;
  ASSERT_TRUE(parseSpec(Revised, RevisedSpec, &Err)) << Spec.Id << ": "
                                                     << Err;
  EXPECT_NE(RevisedSpec.hash(), Spec.hash())
      << Spec.Id << ": a cost revision must move the spec hash";

  ConvLayer L{"gauntlet", 64, 28, 28, 128, 3, 3, 1, 1, 1, false};
  TargetBackendRef Orig = Registry.get(Spec.Id);
  std::string OrigKey = Orig->convKey(L);

  TargetBackendRef Rev = Registry.registerSpec(RevisedSpec, Source);
  EXPECT_NE(Rev->convKey(L), OrigKey)
      << Spec.Id << ": revised spec must not share conv cache keys";
  EXPECT_NE(CompilerSession::persistenceFingerprint(), Fp0)
      << Spec.Id << ": revised spec must move the persistence fingerprint";

  Registry.registerSpec(Spec, Source);
  EXPECT_EQ(Registry.get(Spec.Id)->convKey(L), OrigKey);
  EXPECT_EQ(CompilerSession::persistenceFingerprint(), Fp0)
      << Spec.Id << ": restoring the original spec must restore the "
      << "fingerprint exactly";
  EXPECT_EQ(Registry.specSourceFor(Spec.Id), Source);
}

/// Gauntlet stage 4: the target over the wire. \p Client must be
/// connected (and past hello) to a server sharing this process's
/// registry, so the wire compile and the in-process compile resolve the
/// same backend and must agree exactly.
inline void checkSpecOverSocket(const TargetSpec &Spec,
                                CompileClient &Client) {
  std::string Err;
  std::optional<std::vector<CompileClient::TargetInfo>> Targets =
      Client.listTargets(&Err);
  ASSERT_TRUE(Targets.has_value()) << Err;
  bool Advertised = false;
  for (const CompileClient::TargetInfo &T : *Targets)
    if (T.Id == Spec.Id) {
      Advertised = true;
      EXPECT_EQ(T.SpecHash, Spec.hash());
      EXPECT_EQ(T.Source,
                specSourceName(
                    TargetRegistry::instance().specSourceFor(Spec.Id)));
    }
  EXPECT_TRUE(Advertised) << Spec.Id << " missing from list_targets";

  ConvLayer L = sampleZooConvs(1).front();
  std::optional<CompileClient::CompileResult> Remote =
      Client.compileConv(Spec.Id, L, {}, &Err);
  ASSERT_TRUE(Remote.has_value()) << Spec.Id << ": " << Err;
  EXPECT_TRUE(Remote->Report.Tensorized);
  KernelReport Local = TargetRegistry::instance().get(Spec.Id)->compileConv(
      L, /*Pool=*/nullptr);
  EXPECT_EQ(Remote->Report.Seconds, Local.Seconds);
  EXPECT_EQ(Remote->Report.IntrinsicName, Local.IntrinsicName);
  EXPECT_EQ(Remote->Report.BestCandidateIndex, Local.BestCandidateIndex);
}

/// One tuner search a backend runs: the laid-out op and its first
/// matching instruction.
struct TunedView {
  ComputeOpRef Op;
  MatchResult Match;
};

/// The first of \p Spec's instructions that matches \p Op, as the
/// backend picks it; nullopt when the backend would fall back to SIMD.
inline std::optional<TunedView> tunedView(const TargetSpec &Spec,
                                          const ComputeOpRef &Op) {
  for (const TensorIntrinsicRef &Intr :
       TargetRegistry::instance().get(Spec.Id)->intrinsics())
    if (std::optional<MatchResult> M = inspect(Op, Intr))
      return TunedView{Op, *M};
  return std::nullopt;
}

/// The searches \p Spec's backend runs to compile \p L: the direct conv
/// on a CPU target, the fused and unfused implicit-GEMM views on a GPU
/// target. Layers the backend does not tensorize contribute none.
inline std::vector<TunedView> tunedConvViews(const TargetSpec &Spec,
                                             const ConvLayer &L) {
  const QuantScheme &Q = Spec.Scheme;
  std::vector<ComputeOpRef> Ops;
  if (Spec.Engine == TargetSpec::EngineKind::CpuDot)
    Ops.push_back(buildDirectConvOp(L, Q.Activation, Q.Weight, Q.Accumulator,
                                    Q.LaneMultiple, Q.ReduceMultiple)
                      .Op);
  else
    for (bool Fuse : {true, false})
      Ops.push_back(buildConvAsGemmOp(L, Q.Activation, Q.Accumulator,
                                      Q.LaneMultiple, Fuse)
                        .Op);
  std::vector<TunedView> Views;
  for (const ComputeOpRef &Op : Ops)
    if (std::optional<TunedView> V = tunedView(Spec, Op))
      Views.push_back(std::move(*V));
  return Views;
}

/// Field-by-field KernelStats equality (doubles compared with ==).
inline void expectSameStats(const KernelStats &A, const KernelStats &B,
                            const std::string &What) {
  EXPECT_EQ(A.Calls, B.Calls) << What;
  EXPECT_EQ(A.MacsPerCall, B.MacsPerCall) << What;
  EXPECT_EQ(A.Cost.LatencyCycles, B.Cost.LatencyCycles) << What;
  EXPECT_EQ(A.Cost.IssuePerCycle, B.Cost.IssuePerCycle) << What;
  EXPECT_EQ(A.Cost.MacsPerInstr, B.Cost.MacsPerInstr) << What;
  EXPECT_EQ(A.LoadsPerCall, B.LoadsPerCall) << What;
  EXPECT_EQ(A.Unroll, B.Unroll) << What;
  EXPECT_EQ(A.ParallelExtent, B.ParallelExtent) << What;
  EXPECT_EQ(A.SplitK, B.SplitK) << What;
  EXPECT_EQ(A.HasResidueGuards, B.HasResidueGuards) << What;
  EXPECT_EQ(A.UsefulFraction, B.UsefulFraction) << What;
  EXPECT_EQ(A.OutputBytes, B.OutputBytes) << What;
  EXPECT_EQ(A.InputBytes, B.InputBytes) << What;
  EXPECT_EQ(A.WeightBytes, B.WeightBytes) << What;
  EXPECT_EQ(A.SimdMacs, B.SimdMacs) << What;
  EXPECT_EQ(A.SimdElemBytes, B.SimdElemBytes) << What;
  EXPECT_EQ(A.WideningFactor, B.WideningFactor) << What;
}

/// What checkAnalyticScoring covered.
struct AnalyticCoverage {
  size_t Searches = 0;
  size_t Candidates = 0;
  size_t Guarded = 0; ///< Candidates whose built plan has residue guards.
};

/// Gauntlet stage 5 for one search: an exhaustive search over \p View on
/// \p Spec's machine prices every candidate bit-identically to the cost
/// model run on analyzeTensorized of the candidate's built plan, and the
/// winner's stats equal, field by field, those of its rebuilt plan.
inline void checkAnalyticScoring(const TargetSpec &Spec, const TunedView &View,
                                 AnalyticCoverage &Coverage) {
  bool Cpu = Spec.Engine == TargetSpec::EngineKind::CpuDot;
  TunedKernel Tuned = Cpu ? tuneCpu(View.Op, View.Match, Spec.Cpu)
                          : tuneGpu(View.Op, View.Match, Spec.Gpu);
  size_t Space = Cpu ? defaultCpuTuningPairs().size()
                     : defaultGpuTuningConfigs().size();
  ASSERT_EQ(Tuned.CandidateLatencies.size(), Space) << Spec.Id;
  auto Build = [&](size_t I) {
    return Cpu ? buildCpuPlan(View.Op, View.Match, defaultCpuTuningPairs()[I])
               : buildGpuPlan(View.Op, View.Match,
                              defaultGpuTuningConfigs()[I]);
  };
  ++Coverage.Searches;
  for (size_t I = 0; I < Space; ++I) {
    KernelStats Built = analyzeTensorized(Build(I));
    double Want = Cpu ? cpuLatencySeconds(Built, Spec.Cpu)
                      : gpuLatencySeconds(Built, Spec.Gpu);
    EXPECT_EQ(std::memcmp(&Tuned.CandidateLatencies[I], &Want, sizeof Want),
              0)
        << Spec.Id << " candidate " << I << ": scored "
        << Tuned.CandidateLatencies[I] << ", built plan " << Want;
    ++Coverage.Candidates;
    Coverage.Guarded += Built.HasResidueGuards;
  }
  ASSERT_GE(Tuned.BestCandidateIndex, 0) << Spec.Id;
  expectSameStats(
      Tuned.Stats,
      analyzeTensorized(Build(static_cast<size_t>(Tuned.BestCandidateIndex))),
      Spec.Id + " winner");
}

/// The cost model's LoadsPerCall for \p View's reorganized plan equals
/// the piece count of the operands the Replacer generates for it: the
/// product of the Unroll extents in each input register's
/// generateOperand Roles, summed over the registers. The strides behind
/// those roles are derived here independently of the shared coefficient
/// rule (opLaneStrides): the access substituted with the plan's root
/// bindings, flattened, and decomposed by the test-side analyzeLinear
/// (LinearIndexOracle.h) over the tile-inner loops. Each recorded role
/// is Broadcast exactly where that access is invariant, and the roles
/// equal operandRoles of those strides, so a coefficient rule that is
/// wrong for the count and the lowering alike fails here.
inline void checkLoadCountParity(const TunedView &View,
                                 const std::string &What) {
  TensorizePlan Plan = reorganizeLoops(View.Op, View.Match);
  VarSubst Roots = Plan.Sched->resolve().Roots;
  VarSubst Origin;
  std::set<const IterVarNode *> InnerVars;
  for (const auto &[InstrAxis, Inner] : Plan.InnerVarOf) {
    Origin[Inner.get()] = makeIntImm(0);
    InnerVars.insert(Inner.get());
  }
  VarSubst AtOrigin = Plan.Sched->resolve(Origin).Roots;
  ExprRef OutIdx = generateOutputIndex(Plan, AtOrigin);
  int64_t Pieces = 0;
  for (const OperandBinding &B : Plan.Match.Iso.Bindings) {
    if (B.IsAccumulator)
      continue;
    OperandInfo Info = generateOperand(Plan, B, AtOrigin, OutIdx);
    std::vector<ExprRef> Idx;
    for (const ExprRef &I : B.OpLoad->Indices)
      Idx.push_back(substitute(I, Roots));
    LinearDecomposition OLI =
        analyzeLinear(flattenIndex(B.OpLoad->Buf, Idx), InnerVars);
    ASSERT_TRUE(OLI.Valid) << What;
    const RegisterLayout &Layout =
        Plan.Match.Intrinsic->laneLayout(B.InstrLoad);
    std::vector<int64_t> Strides;
    for (const LaneAxis &Axis : Layout.Axes)
      Strides.push_back(
          OLI.coeffOf(Plan.InnerVarOf.at(Axis.InstrAxis.get()).get()));
    EXPECT_TRUE(Info.Roles == operandRoles(Layout, Strides).Recorded)
        << What << ": register " << B.InstrTensor->name();
    int64_t Loads = 1;
    for (const auto &[Axis, Role] : Info.Roles) {
      bool Invariant =
          OLI.coeffOf(Plan.InnerVarOf.at(Axis.get()).get()) == 0;
      EXPECT_EQ(Role == OperandAxisRole::Broadcast, Invariant)
          << What << ": register " << B.InstrTensor->name() << ", axis "
          << Axis->name();
      if (Role == OperandAxisRole::Unroll)
        Loads *= Axis->extent();
    }
    Pieces += Loads;
  }
  EXPECT_EQ(analyzeTensorized(Plan).LoadsPerCall,
            static_cast<double>(std::max<int64_t>(1, Pieces)))
      << What;
}

/// Gauntlet stage 5: the analytic scoring over the zoo sample.
inline void checkSpecAnalyticScoring(const TargetSpec &Spec,
                                     size_t SampleSize = 6) {
  AnalyticCoverage Coverage;
  for (const ConvLayer &L : sampleZooConvs(SampleSize))
    for (const TunedView &View : tunedConvViews(Spec, L)) {
      checkAnalyticScoring(Spec, View, Coverage);
      checkLoadCountParity(View, Spec.Id + " " + L.Name);
    }
  EXPECT_GT(Coverage.Searches, 0u) << Spec.Id;
}

/// The full gauntlet for one registered target.
inline void runSpecGauntlet(const TargetSpec &Spec, CompileClient &Client) {
  SCOPED_TRACE("spec gauntlet: " + Spec.Id);
  checkSpecRoundTrip(Spec);
  checkSpecTensorizesZooSample(Spec);
  checkSpecRevisionDistinctness(Spec);
  checkSpecOverSocket(Spec, Client);
  checkSpecAnalyticScoring(Spec);
}

} // namespace testutil
} // namespace unit

#endif // UNIT_TESTS_SPECCONFORMANCE_H
