//===- tests/test_transfer.cpp - Transfer tuning & pruning parity ----------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
// Locks down the three production-scale tuner mechanisms (docs/TUNING.md):
//
//   - early-exit pruning must be invisible in results: for randomized zoo
//     shapes on every registered target, the pruned compile's report is
//     byte-identical to the exhaustive one, sequential or pooled, seeded
//     or not, budgeted or not;
//   - structuralDistance (the transfer-neighbor metric) satisfies the
//     axioms the nearest-neighbor lookup relies on;
//   - a session warmed on resnet-18 compiles the channel-widened variant
//     with exactly one tuner invocation per genuinely new shape — the
//     >= 50% cut over a cold session, asserted on exact counts — and the
//     transfer-seed counter proves the warm starts actually flowed.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/Inspector.h"
#include "core/Isomorphism.h"
#include "graph/Layout.h"
#include "models/ModelZoo.h"
#include "runtime/CompileRequest.h"
#include "runtime/CompilerSession.h"
#include "runtime/Workload.h"
#include "support/ThreadPool.h"
#include "target/MachineOverlay.h"
#include "target/SpecFile.h"
#include "target/TargetRegistry.h"
#include "tuner/Tuner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <set>
#include <string>
#include <vector>

using namespace unit;
using namespace unit::testutil;

namespace {

bool sameReport(const KernelReport &A, const KernelReport &B) {
  return std::memcmp(&A.Seconds, &B.Seconds, sizeof(double)) == 0 &&
         A.Tensorized == B.Tensorized &&
         A.BestCandidateIndex == B.BestCandidateIndex &&
         A.CandidatesTried == B.CandidatesTried &&
         A.IntrinsicName == B.IntrinsicName;
}

std::string shapeId(const ConvLayer &L) {
  return std::to_string(L.InC) + "x" + std::to_string(L.InH) + "x" +
         std::to_string(L.InW) + "x" + std::to_string(L.OutC) + "x" +
         std::to_string(L.KH) + "x" + std::to_string(L.KW) + "s" +
         std::to_string(L.Stride) + "p" + std::to_string(L.PadH) +
         (L.Depthwise ? "dw" : "");
}

/// A deterministic random sample of distinct conv shapes from the paper
/// zoo — enough variety (1x1 / 3x3 / 7x7 / depthwise / strided) to
/// exercise every pruning path without compiling all ~148 shapes per
/// target per option combination.
std::vector<ConvLayer> sampleZooLayers(size_t Count) {
  std::vector<ConvLayer> Distinct;
  std::set<std::string> Seen;
  for (const Model &M : paperModels())
    for (const ConvLayer &L : M.Convs)
      if (Seen.insert(shapeId(L)).second)
        Distinct.push_back(L);
  std::mt19937 Rng(20260808);
  std::shuffle(Distinct.begin(), Distinct.end(), Rng);
  if (Distinct.size() > Count)
    Distinct.resize(Count);
  return Distinct;
}

/// The canonical structural key of the op a CPU scheme would build for
/// \p L — what CompilerSession measures transfer distance on.
std::string canonicalKeyFor(const ConvLayer &L) {
  QuantScheme S = TargetRegistry::instance().get("x86")->scheme();
  LaidOutOp Laid = buildDirectConvOp(L, S.Activation, S.Weight,
                                     S.Accumulator, S.LaneMultiple,
                                     S.ReduceMultiple);
  return canonicalComputeKey(*Laid.Op);
}

ConvLayer layer(int64_t InC, int64_t HW, int64_t OutC, int64_t K,
                int64_t Stride, int64_t Pad) {
  ConvLayer L;
  L.Name = "t";
  L.InC = InC;
  L.InH = L.InW = HW;
  L.OutC = OutC;
  L.KH = L.KW = K;
  L.Stride = Stride;
  L.PadH = L.PadW = Pad;
  return L;
}

} // namespace

//===----------------------------------------------------------------------===//
// Pruned == exhaustive, byte for byte
//===----------------------------------------------------------------------===//

TEST(PruningParity, ReportsBitIdenticalOnEveryTarget) {
  std::vector<ConvLayer> Layers = sampleZooLayers(6);
  ASSERT_FALSE(Layers.empty());
  ThreadPool Pool(4);
  for (const TargetBackendRef &Target : TargetRegistry::instance().all()) {
    for (const ConvLayer &L : Layers) {
      CompileOptions Exhaustive;
      Exhaustive.PruneSearch = false;
      KernelReport Base = Target->compileConv(L, nullptr, Exhaustive);

      // Every prune/seed combination, sequential and pooled, must
      // reproduce the exhaustive report exactly. Seeds: the known
      // winner (the transfer fast path), an arbitrary in-range index,
      // and a far out-of-range one (must be ignored, not crash).
      CompileOptions Pruned; // PruneSearch defaults on.
      CompileOptions SeededWinner = Pruned;
      SeededWinner.SeedCandidate = Base.BestCandidateIndex;
      CompileOptions SeededArbitrary = Pruned;
      SeededArbitrary.SeedCandidate = 2;
      CompileOptions SeededOutOfRange = Pruned;
      SeededOutOfRange.SeedCandidate = 1 << 20;
      for (const CompileOptions &O :
           {Pruned, SeededWinner, SeededArbitrary, SeededOutOfRange}) {
        KernelReport Seq = Target->compileConv(L, nullptr, O);
        KernelReport Par = Target->compileConv(L, &Pool, O);
        EXPECT_TRUE(sameReport(Base, Seq))
            << Target->id() << " " << shapeId(L) << " seed "
            << O.SeedCandidate << " (sequential)";
        EXPECT_TRUE(sameReport(Base, Par))
            << Target->id() << " " << shapeId(L) << " seed "
            << O.SeedCandidate << " (pooled)";
      }

      // Budgeted searches: parity must hold within the truncated space
      // too (budget changes the space, so compare against a budgeted
      // exhaustive baseline, not the full one).
      CompileOptions BudgetEx;
      BudgetEx.MaxCandidates = 5;
      BudgetEx.PruneSearch = false;
      CompileOptions BudgetPruned;
      BudgetPruned.MaxCandidates = 5;
      KernelReport BBase = Target->compileConv(L, nullptr, BudgetEx);
      KernelReport BSeq = Target->compileConv(L, nullptr, BudgetPruned);
      KernelReport BPar = Target->compileConv(L, &Pool, BudgetPruned);
      EXPECT_TRUE(sameReport(BBase, BSeq))
          << Target->id() << " " << shapeId(L) << " (budgeted)";
      EXPECT_TRUE(sameReport(BBase, BPar))
          << Target->id() << " " << shapeId(L) << " (budgeted, pooled)";
    }
  }
}

TEST(PruningParity, SessionCompilesMatchWithAndWithoutPruning) {
  // Whole-model parity through the session layer (cache + transfer
  // seeding live here): a pruned+seeded session and an exhaustive one
  // must produce byte-identical per-layer reports.
  Model Wide = makeResnet18Wide();
  CompilerSession Seeded; // Defaults: pruning on, transfer seeding on.
  CompilerSession Plain;
  ModelCompileResult A = Seeded.compileModel(makeResnet18(), "x86");
  ModelCompileResult B = Seeded.compileModel(Wide, "x86"); // Seeded path.
  CompileOptions Exhaustive;
  Exhaustive.PruneSearch = false;
  ModelCompileResult C = Plain.compileModel(Wide, "x86", Exhaustive);
  ASSERT_EQ(B.Layers.size(), C.Layers.size());
  for (size_t I = 0; I < B.Layers.size(); ++I)
    EXPECT_TRUE(sameReport(B.Layers[I], C.Layers[I]))
        << "layer " << I << " (" << Wide.Convs[I].Name << ")";
  (void)A;
}

//===----------------------------------------------------------------------===//
// Scored-only coverage telemetry
//===----------------------------------------------------------------------===//

TEST(PruningTelemetry, CoverageDescribesExactlyTheScoredSubset) {
  OpFixture F = makeConv2D(16, 16, 16, 64, 3, 3);
  TensorIntrinsicRef Vnni =
      IntrinsicRegistry::instance().lookup("vnni.vpdpbusd");
  std::optional<MatchResult> M = inspect(F.Op, Vnni);
  ASSERT_TRUE(M.has_value());
  CpuMachine Machine = CpuMachine::cascadeLake();

  TunedKernel Ex = tuneCpu(F.Op, *M, Machine);
  EXPECT_EQ(Ex.CandidatesTried, Ex.SpaceSize);
  EXPECT_EQ(Ex.CandidateLatencies.size(),
            static_cast<size_t>(Ex.SpaceSize));

  TunerOptions Opts;
  Opts.Prune = true;
  uint64_t Pruned0 = tunerPrunedCandidates();
  TunedKernel Pr = tuneCpu(F.Op, *M, Machine, nullptr, Opts);
  uint64_t PrunedDelta = tunerPrunedCandidates() - Pruned0;

  // Winner fields are bit-identical to the exhaustive search.
  EXPECT_EQ(Ex.BestCandidateIndex, Pr.BestCandidateIndex);
  EXPECT_EQ(std::memcmp(&Ex.LatencySeconds, &Pr.LatencySeconds,
                        sizeof(double)),
            0);
  EXPECT_EQ(Ex.SpaceSize, Pr.SpaceSize);

  // Coverage describes the scored subset: one latency and one space
  // index per scored candidate, and (sequentially) scored + pruned
  // partition the space exactly.
  EXPECT_EQ(Pr.CandidateLatencies.size(),
            static_cast<size_t>(Pr.CandidatesTried));
  EXPECT_EQ(Pr.ScoredIndices.size(),
            static_cast<size_t>(Pr.CandidatesTried));
  EXPECT_EQ(static_cast<uint64_t>(Pr.CandidatesTried) + PrunedDelta,
            static_cast<uint64_t>(Pr.SpaceSize));

  // The winner is among the scored, with its exhaustive latency.
  bool FoundBest = false;
  for (size_t I = 0; I < Pr.ScoredIndices.size(); ++I)
    if (Pr.ScoredIndices[I] == Pr.BestCandidateIndex) {
      FoundBest = true;
      EXPECT_EQ(std::memcmp(&Pr.CandidateLatencies[I], &Pr.LatencySeconds,
                            sizeof(double)),
                0);
      EXPECT_EQ(
          std::memcmp(
              &Ex.CandidateLatencies[static_cast<size_t>(
                  Ex.BestCandidateIndex)],
              &Pr.CandidateLatencies[I], sizeof(double)),
          0);
    }
  EXPECT_TRUE(FoundBest);
}

//===----------------------------------------------------------------------===//
// Structural distance axioms
//===----------------------------------------------------------------------===//

TEST(StructuralDistance, SelfDistanceIsZero) {
  std::string K = canonicalKeyFor(layer(256, 14, 512, 3, 2, 1));
  EXPECT_EQ(structuralDistance(K, K, 64), 0u);
}

TEST(StructuralDistance, RenamedIsomorphicLayersAreAtDistanceZero) {
  ConvLayer A = layer(256, 14, 512, 3, 2, 1);
  ConvLayer B = A;
  B.Name = "a.completely.different.name";
  // Canonicalization already erases names, so the keys — and therefore
  // the distance — must collapse to equality.
  EXPECT_EQ(canonicalKeyFor(A), canonicalKeyFor(B));
  EXPECT_EQ(structuralDistance(canonicalKeyFor(A), canonicalKeyFor(B), 64),
            0u);
}

TEST(StructuralDistance, SymmetricAndSmallForNearIsomorphicShapes) {
  std::string K512 = canonicalKeyFor(layer(512, 7, 512, 3, 1, 1));
  std::string K640 = canonicalKeyFor(layer(640, 7, 640, 3, 1, 1));
  size_t Cutoff = std::max<size_t>(8, K512.size() / 10);
  size_t D = structuralDistance(K512, K640, Cutoff);
  EXPECT_GT(D, 0u);
  EXPECT_LE(D, Cutoff) << "widened variant must stay inside the transfer "
                          "cutoff or seeding never fires";
  EXPECT_EQ(D, structuralDistance(K640, K512, Cutoff));
}

TEST(StructuralDistance, ConvVersusDenseExceedsConvVersusConv) {
  std::string Conv = canonicalKeyFor(layer(512, 7, 512, 3, 1, 1));
  std::string Wide = canonicalKeyFor(layer(640, 7, 640, 3, 1, 1));
  // A dense layer is a 1x1 conv over a 1x1 "image" — structurally much
  // further from a spatial 3x3 conv than a channel widening is.
  ConvLayer Dense = layer(512, 1, 1000, 1, 1, 0);
  std::string DenseKey = canonicalKeyFor(Dense);
  size_t Big = 100000;
  size_t DConv = structuralDistance(Conv, Wide, Big);
  size_t DDense = structuralDistance(Conv, DenseKey, Big);
  EXPECT_GT(DDense, 0u);
  EXPECT_GT(DDense, DConv);
}

TEST(StructuralDistance, CutoffBoundsTheComputation) {
  std::string A = canonicalKeyFor(layer(512, 7, 512, 3, 1, 1));
  std::string B = canonicalKeyFor(layer(64, 56, 64, 1, 1, 0));
  size_t Exact = structuralDistance(A, B, 100000);
  ASSERT_GT(Exact, 3u);
  // Under a cutoff below the true distance the function reports
  // Cutoff + 1 ("too far"), never an underestimate.
  EXPECT_EQ(structuralDistance(A, B, 3), 4u);
}

//===----------------------------------------------------------------------===//
// Transfer tuning cuts tuner invocations — exact accounting
//===----------------------------------------------------------------------===//

TEST(TransferTuning, WarmSessionTunesOnlyTheNewShapes) {
  TargetBackendRef X86 = TargetRegistry::instance().get("x86");
  Model R18 = makeResnet18();
  Model Wide = makeResnet18Wide();

  // Expected work, derived from cache keys: the widened model must cost
  // exactly one tuner invocation per conv key it does not share with
  // resnet-18.
  std::set<std::string> R18Keys, WideKeys, NewKeys;
  for (const ConvLayer &L : R18.Convs)
    R18Keys.insert(X86->convKey(L));
  for (const ConvLayer &L : Wide.Convs) {
    WideKeys.insert(X86->convKey(L));
    if (!R18Keys.count(X86->convKey(L)))
      NewKeys.insert(X86->convKey(L));
  }
  ASSERT_FALSE(NewKeys.empty());
  ASSERT_LT(NewKeys.size(), WideKeys.size()) << "models must share shapes";

  CompilerSession Warm;
  uint64_t T0 = tunerInvocations();
  for (const ConvLayer &L : R18.Convs)
    Warm.compile({Workload::conv2d(L), X86});
  uint64_t ColdR18 = tunerInvocations() - T0;
  EXPECT_EQ(ColdR18, R18Keys.size());

  uint64_t Seeds0 = Warm.sessionStats().TransferSeeds;
  uint64_t T1 = tunerInvocations();
  std::vector<KernelReport> WarmReports;
  for (const ConvLayer &L : Wide.Convs)
    WarmReports.push_back(Warm.compile({Workload::conv2d(L), X86}));
  uint64_t WarmWide = tunerInvocations() - T1;
  EXPECT_EQ(WarmWide, NewKeys.size());

  // Cold baseline: the same model in a fresh session tunes every
  // distinct shape.
  CompilerSession Cold;
  uint64_t T2 = tunerInvocations();
  std::vector<KernelReport> ColdReports;
  for (const ConvLayer &L : Wide.Convs)
    ColdReports.push_back(Cold.compile({Workload::conv2d(L), X86}));
  uint64_t ColdWide = tunerInvocations() - T2;
  EXPECT_EQ(ColdWide, WideKeys.size());

  // The headline claim, exact: warm compiles the variant with at least
  // 50% fewer tuner invocations than cold.
  EXPECT_LE(WarmWide * 2, ColdWide);

  // The cut came with transfer seeds flowing (every new s4 shape has a
  // near-isomorphic 512-channel neighbor already cached)...
  EXPECT_GT(Warm.sessionStats().TransferSeeds, Seeds0);
  // ...and seeding never changed a single report byte.
  ASSERT_EQ(WarmReports.size(), ColdReports.size());
  for (size_t I = 0; I < WarmReports.size(); ++I)
    EXPECT_TRUE(sameReport(WarmReports[I], ColdReports[I]))
        << "layer " << I << " (" << Wide.Convs[I].Name << ")";
}

//===----------------------------------------------------------------------===//
// Machine overlay (cost-model refit)
//===----------------------------------------------------------------------===//

TEST(MachineOverlay, RejectsMalformedDocumentsUntouched) {
  // Each rejected document, and what its error must name: the JSON path
  // of the offending field wherever there is one.
  const std::pair<const char *, const char *> Cases[] = {
      {"not json", "parse error"},
      {"{\"version\":2,\"refit\":[]}", "'version'"},
      {"{\"version\":1,\"refit\":[{\"target\":\"no-such-target\","
       "\"cpu\":{}}]}",
       "refit[0].target"},
      // GPU block on a CPU target.
      {"{\"version\":1,\"refit\":[{\"target\":\"x86\",\"gpu\":{}}]}",
       "refit[0].gpu"},
      // Typo'd field name must be an error, not a silent no-op.
      {"{\"version\":1,\"refit\":[{\"target\":\"x86\","
       "\"cpu\":{\"dram_bytes_per_cycel\":10}}]}",
       "refit[0].cpu.dram_bytes_per_cycel"},
      // Non-positive values are measurement bugs.
      {"{\"version\":1,\"refit\":[{\"target\":\"x86\","
       "\"cpu\":{\"freq_ghz\":0}}]}",
       "refit[0].cpu.freq_ghz"},
      // An overlay block is a partial machine block: it refits constants
      // and cannot rename the machine.
      {"{\"version\":1,\"refit\":[{\"target\":\"x86\","
       "\"cpu\":{\"name\":\"renamed\"}}]}",
       "refit[0].cpu.name"},
      // Counts are positive integers, at most 2^20.
      {"{\"version\":1,\"refit\":[{\"target\":\"x86\","
       "\"cpu\":{\"cores\":23.5}}]}",
       "refit[0].cpu.cores"},
      {"{\"version\":1,\"refit\":[{\"target\":\"x86\","
       "\"cpu\":{\"cores\":1048577}}]}",
       "refit[0].cpu.cores"},
      // A valid first entry does not land when a later one is rejected.
      {"{\"version\":1,\"refit\":[{\"target\":\"x86\","
       "\"cpu\":{\"fork_join_cycles\":10}},{\"target\":\"nvgpu\","
       "\"gpu\":{\"sms\":-1}}]}",
       "refit[1].gpu.sms"},
  };
  TargetRegistry &Registry = TargetRegistry::instance();
  std::string OldX86 = Registry.specFor("x86").hash();
  std::string OldGpu = Registry.specFor("nvgpu").hash();
  for (const auto &[Doc, Path] : Cases) {
    SCOPED_TRACE(Doc);
    std::string Err;
    EXPECT_FALSE(applyMachineOverlayText(Doc, &Err));
    EXPECT_NE(Err.find(Path), std::string::npos) << "error was: " << Err;
  }
  EXPECT_EQ(Registry.specFor("x86").hash(), OldX86);
  EXPECT_EQ(Registry.specFor("nvgpu").hash(), OldGpu);
}

TEST(MachineOverlay, OversizeFileRejectedUntouched) {
  // A valid overlay padded past the spec-file cap: only the cap rejects it.
  std::string Path = testing::TempDir() + "unit_overlay_over_cap.json";
  std::string Text = "{\"version\":1,\"refit\":[{\"target\":\"x86\","
                     "\"cpu\":{\"fork_join_cycles\":10}}]}";
  Text.resize(MaxSpecFileBytes + 1, ' ');
  {
    std::ofstream Out(Path, std::ios::binary);
    Out << Text;
  }
  std::string OldHash = TargetRegistry::instance().specFor("x86").hash();
  std::string Err;
  EXPECT_FALSE(applyMachineOverlayFile(Path, &Err));
  EXPECT_NE(Err.find("byte limit"), std::string::npos) << Err;
  EXPECT_EQ(TargetRegistry::instance().specFor("x86").hash(), OldHash);
  std::remove(Path.c_str());
}

TEST(MachineOverlay, RefitMovesSpecHashAndCacheKeys) {
  TargetRegistry &Registry = TargetRegistry::instance();
  TargetSpec Before = Registry.specFor("x86");
  std::string OldHash = Before.hash();
  ConvLayer L = layer(64, 56, 64, 3, 1, 1);
  std::string OldKey = Registry.get("x86")->convKey(L);

  // %.17g round-trips doubles exactly — the restore below must bring the
  // spec hash back bit-for-bit.
  auto OverlayFor = [](double DramBytesPerCycle) {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"version\":1,\"refit\":[{\"target\":\"x86\","
                  "\"cpu\":{\"dram_bytes_per_cycle\":%.17g}}]}",
                  DramBytesPerCycle);
    return std::string(Buf);
  };
  std::string Err;
  double Refit = Before.Cpu.DramBytesPerCycle * 2;
  std::string Overlay = OverlayFor(Refit);
  ASSERT_TRUE(applyMachineOverlayText(Overlay, &Err)) << Err;
  EXPECT_TRUE(machineOverlayActive());

  TargetSpec After = Registry.specFor("x86");
  EXPECT_EQ(After.Cpu.DramBytesPerCycle, Refit);
  EXPECT_NE(After.hash(), OldHash);
  // Cache keys carry the spec hash, so kernels tuned under the factory
  // constants can never be served under the refit ones.
  EXPECT_NE(Registry.get("x86")->convKey(L), OldKey);
  // The refit backend compiles.
  KernelReport R = Registry.get("x86")->compileConv(L, nullptr);
  EXPECT_TRUE(R.Tensorized);

  // Restore the factory constants so test order never matters.
  ASSERT_TRUE(
      applyMachineOverlayText(OverlayFor(Before.Cpu.DramBytesPerCycle), &Err))
      << Err;
  EXPECT_EQ(Registry.specFor("x86").hash(), OldHash);
  EXPECT_EQ(Registry.get("x86")->convKey(L), OldKey);
}
