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
//     transfer-seed counter proves the warm starts actually flowed;
//   - TransferIndex, the pruned nearest-neighbor scan, picks the same
//     seed as the full scan it replaced, and stays consistent while
//     cold compiles scan and record concurrently.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/Inspector.h"
#include "core/Isomorphism.h"
#include "graph/Layout.h"
#include "models/ModelZoo.h"
#include "runtime/CompileRequest.h"
#include "runtime/CompilerSession.h"
#include "runtime/TransferIndex.h"
#include "runtime/Workload.h"
#include "support/ThreadPool.h"
#include "target/MachineOverlay.h"
#include "target/SpecFile.h"
#include "target/TargetRegistry.h"
#include "tuner/Tuner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
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
// Structural distance over interned tokens
//===----------------------------------------------------------------------===//

namespace {

/// \p Keys interned against one shared table: equal tokens, equal ids.
std::vector<std::vector<uint32_t>>
internAll(const std::vector<std::string> &Keys) {
  std::unordered_map<std::string_view, uint32_t> Ids;
  std::vector<std::vector<uint32_t>> Out;
  for (const std::string &K : Keys) {
    Out.emplace_back();
    for (std::string_view Tok : structuralTokens(K))
      Out.back().push_back(
          Ids.emplace(Tok, static_cast<uint32_t>(Ids.size())).first->second);
  }
  return Out;
}

/// Plain full-table Levenshtein over token ids: the definition the
/// cut-off structuralDistance must agree with.
size_t fullEditDistance(const std::vector<uint32_t> &A,
                        const std::vector<uint32_t> &B) {
  std::vector<size_t> Prev(B.size() + 1), Cur(B.size() + 1);
  for (size_t J = 0; J <= B.size(); ++J)
    Prev[J] = J;
  for (size_t I = 1; I <= A.size(); ++I) {
    Cur[0] = I;
    for (size_t J = 1; J <= B.size(); ++J)
      Cur[J] = std::min({Prev[J - 1] + (A[I - 1] == B[J - 1] ? 0 : 1),
                         Prev[J] + 1, Cur[J - 1] + 1});
    std::swap(Prev, Cur);
  }
  return Prev[B.size()];
}

/// A body made from \p Base by up to \p MaxEdits random token edits over a
/// four-token alphabet: short keys full of equal distances.
std::string editedBody(const std::vector<std::string> &Base, std::mt19937 &Rng,
                       int MaxEdits) {
  static const char *Alphabet[] = {"7", "x", ",", "16"};
  std::vector<std::string> Toks = Base;
  int Edits = static_cast<int>(Rng() % (MaxEdits + 1));
  for (int E = 0; E < Edits; ++E) {
    size_t At = Toks.empty() ? 0 : Rng() % Toks.size();
    std::string Tok = Alphabet[Rng() % 4];
    switch (Rng() % 3) {
    case 0:
      Toks.insert(Toks.begin() + static_cast<long>(At), Tok);
      break;
    case 1:
      if (!Toks.empty())
        Toks.erase(Toks.begin() + static_cast<long>(At));
      break;
    default:
      if (!Toks.empty())
        Toks[At] = Tok;
    }
  }
  // Separators keep neighboring edits from merging into one token.
  std::string Body;
  for (const std::string &T : Toks)
    Body += T + " ";
  return Body;
}

} // namespace

TEST(StructuralDistance, TokenOverloadAgreesWithStrings) {
  std::vector<std::string> Keys;
  for (const ConvLayer &L : sampleZooLayers(12))
    if (!L.Depthwise) // Depthwise layers have no direct-conv op.
      Keys.push_back(canonicalKeyFor(L));
  std::mt19937 Rng(1807);
  std::vector<std::string> Base = {"7", "x", "16", ",", "7", "7", "x", "16"};
  for (int I = 0; I < 24; ++I)
    Keys.push_back(editedBody(Base, Rng, 6));
  Keys.push_back("");
  std::vector<std::vector<uint32_t>> Tokens = internAll(Keys);
  for (size_t A = 0; A < Keys.size(); ++A)
    for (size_t B = 0; B < Keys.size(); ++B) {
      size_t Exact = structuralDistance(Keys[A], Keys[B], 100000);
      ASSERT_EQ(Exact, fullEditDistance(Tokens[A], Tokens[B]));
      for (size_t Cutoff : {size_t{0}, size_t{1}, size_t{3}, Exact}) {
        size_t D = structuralDistance(Keys[A], Keys[B], Cutoff);
        EXPECT_EQ(D, std::min(Exact, Cutoff + 1));
        EXPECT_EQ(structuralDistance(Tokens[A], Tokens[B], Cutoff), D)
            << "keys " << A << ", " << B << " cutoff " << Cutoff;
      }
    }
}

namespace {

/// The token edit distance of two keys by the plain definition, from
/// tokens interned afresh.
size_t freshDistance(const std::string &A, const std::string &B) {
  std::vector<std::vector<uint32_t>> T = internAll({A, B});
  return fullEditDistance(T[0], T[1]);
}

/// Symbols joined by spaces, so neighboring symbols never merge into one
/// token.
std::string joinTokens(const std::vector<std::string> &Symbols) {
  std::string Out;
  for (const std::string &S : Symbols)
    Out += S + " ";
  return Out;
}

} // namespace

TEST(StructuralDistance, MatchesFullEditDistanceOnRandomTokenStreams) {
  // Pairs of short token streams over small alphabets, where the diagonal
  // computation's slides, cutoffs and edge diagonals all get exercised.
  // The pool has tokens that pack to equal words but differ: a shared
  // 7-byte prefix, and lengths past the 255 the packed length caps at.
  const std::vector<std::string> Pool = {
      "7",        "x",        ",",           "16",
      "abcdefgX", "abcdefgY", "abcdefghijk", std::string(300, 'a'),
      std::string(300, 'a') + "b"};
  std::mt19937 Rng(25);
  auto Stream = [&Rng](const std::vector<std::string> &Alphabet) {
    std::vector<std::string> Out(Rng() % 41);
    for (std::string &S : Out)
      S = Alphabet[Rng() % Alphabet.size()];
    return Out;
  };
  size_t Pairs = 0, Reached = 0;
  for (int I = 0; I < 3000; ++I) {
    std::vector<std::string> Alphabet = Pool;
    std::shuffle(Alphabet.begin(), Alphabet.end(), Rng);
    Alphabet.resize(1 + Rng() % 6);
    std::vector<std::string> A = Stream(Alphabet), B;
    switch (Rng() % 4) {
    case 0: // An unrelated stream.
      B = Stream(Alphabet);
      break;
    case 1: // Empty.
      break;
    default: // A few substitutions, insertions and deletions of A.
      B = A;
      for (int E = static_cast<int>(Rng() % 9); E > 0; --E) {
        size_t At = B.empty() ? 0 : Rng() % B.size();
        const std::string &Tok = Alphabet[Rng() % Alphabet.size()];
        switch (Rng() % 3) {
        case 0:
          B.insert(B.begin() + static_cast<long>(At), Tok);
          break;
        case 1:
          if (!B.empty())
            B.erase(B.begin() + static_cast<long>(At));
          break;
        default:
          if (!B.empty())
            B[At] = Tok;
        }
      }
    }
    if (Rng() % 2)
      std::swap(A, B);
    std::string KA = joinTokens(A), KB = joinTokens(B);
    std::vector<std::vector<uint32_t>> T = internAll({KA, KB});
    size_t Exact = fullEditDistance(T[0], T[1]);
    for (size_t Cutoff : {size_t{0}, size_t{1}, size_t{3},
                          Exact ? Exact - 1 : 0, Exact, size_t{100000}}) {
      size_t Want = std::min(Exact, Cutoff + 1);
      ASSERT_EQ(structuralDistance(KA, KB, Cutoff), Want)
          << "'" << KA << "' vs '" << KB << "' cutoff " << Cutoff;
      ASSERT_EQ(structuralDistance(T[0], T[1], Cutoff), Want)
          << "'" << KA << "' vs '" << KB << "' cutoff " << Cutoff;
      Reached += Exact <= Cutoff;
    }
    ++Pairs;
  }
  EXPECT_EQ(Pairs, 3000u);
  EXPECT_GT(Reached, 0u);
}

TEST(StructuralDistance, StringOverloadReusesTheQueryByContent) {
  // The string overload keeps the first key's tokens between calls; a
  // different key, the same content at another address, or new content
  // at the same address must each give the fresh distance.
  std::string A1 = canonicalKeyFor(layer(512, 7, 512, 3, 1, 1));
  std::string A2 = canonicalKeyFor(layer(640, 7, 640, 3, 1, 1));
  std::string B = canonicalKeyFor(layer(512, 14, 256, 3, 2, 1));
  const size_t Big = 100000;
  size_t D1 = freshDistance(A1, B), D2 = freshDistance(A2, B);
  ASSERT_NE(D1, D2);
  EXPECT_EQ(structuralDistance(A1, B, Big), D1);
  EXPECT_EQ(structuralDistance(A2, B, Big), D2);
  EXPECT_EQ(structuralDistance(A1, B, Big), D1);
  EXPECT_EQ(structuralDistance(std::string(A1), B, Big), D1);
  // Same address and length, new content.
  std::string Query = A1;
  EXPECT_EQ(structuralDistance(Query, B, Big), D1);
  std::string A1Edited = A1;
  std::replace_if(
      A1Edited.begin(), A1Edited.end(),
      [](char C) { return C >= '0' && C <= '8'; }, '9');
  size_t DEdited = freshDistance(A1Edited, B);
  ASSERT_NE(DEdited, D1);
  const char *Before = Query.data();
  Query.replace(0, Query.size(), A1Edited);
  ASSERT_EQ(Query.data(), Before);
  EXPECT_EQ(structuralDistance(Query, B, Big), DEdited);
}

//===----------------------------------------------------------------------===//
// TransferIndex picks the full scan's seed
//===----------------------------------------------------------------------===//

namespace {

/// The full scan TransferIndex replaced, kept as the reference its picks
/// must equal: every body of the group at the max(8, len/10) cutoff,
/// strict < in std::map body order, so ties keep the first body. Only
/// the distances are taken on pre-interned tokens, to keep thousands of
/// 512-body scans quick; TokenOverloadAgreesWithStrings pins those to the
/// string distances.
class FullScanReference {
  struct Body {
    int Winner;
    std::vector<uint32_t> Tokens;
  };
  std::unordered_map<std::string, std::map<std::string, Body>> Index;
  std::unordered_map<std::string, uint32_t> Ids;

  std::vector<uint32_t> intern(const std::string &Body) {
    std::vector<uint32_t> Out;
    for (std::string_view Tok : structuralTokens(Body))
      Out.push_back(Ids.emplace(std::string(Tok),
                                static_cast<uint32_t>(Ids.size()))
                        .first->second);
    return Out;
  }

public:
  static bool split(const std::string &Key, std::string &Group,
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

  void record(const std::string &Key, int Winner) {
    if (Winner < 0)
      return;
    std::string Group, Body;
    if (!split(Key, Group, Body))
      return;
    std::map<std::string, FullScanReference::Body> &G = Index[Group];
    if (G.size() >= TransferIndex::GroupCap && !G.count(Body))
      return;
    auto It = G.find(Body);
    if (It != G.end())
      It->second.Winner = Winner;
    else
      G.emplace(Body, FullScanReference::Body{Winner, intern(Body)});
  }

  /// The seed the full scan picks for \p Key; \p Ties, when set, gets
  /// how many bodies share the least distance.
  int nearest(const std::string &Key, size_t *Ties = nullptr) {
    std::string Group, Body;
    if (!split(Key, Group, Body))
      return -1;
    size_t Cutoff = std::max<size_t>(8, Body.size() / 10);
    auto It = Index.find(Group);
    if (It == Index.end())
      return -1;
    std::vector<uint32_t> Query = intern(Body);
    size_t BestDistance = Cutoff + 1;
    int BestSeed = -1;
    for (const auto &[NeighborBody, Neighbor] : It->second) {
      size_t D = structuralDistance(Query, Neighbor.Tokens, Cutoff);
      if (D < BestDistance) { // Strict: ties keep the first in body order.
        BestDistance = D;
        BestSeed = Neighbor.Winner;
        if (Ties)
          *Ties = 0;
      }
      if (Ties && D == BestDistance)
        ++*Ties;
    }
    return BestDistance <= Cutoff ? BestSeed : -1;
  }
};

/// Distinct x86 conv keys of one group, from randomly perturbed zoo
/// layers: channel counts, image size, stride and padding moved a little,
/// so most keys have near neighbors.
std::vector<std::string> perturbedZooKeys(size_t Count, std::mt19937 &Rng) {
  TargetBackendRef X86 = TargetRegistry::instance().get("x86");
  std::vector<ConvLayer> Zoo = sampleZooLayers(1000);
  std::vector<std::string> Keys;
  std::set<std::string> Seen;
  std::string Group;
  while (Keys.size() < Count) {
    ConvLayer L = Zoo[Rng() % Zoo.size()];
    if (L.Depthwise)
      continue;
    auto Nudge = [&Rng](int64_t V, int64_t Step) {
      return std::max<int64_t>(Step, V + Step * (int64_t(Rng() % 5) - 2));
    };
    L.InC = Nudge(L.InC, 16);
    L.OutC = Nudge(L.OutC, 16);
    L.InH = L.InW = std::max(L.KH, Nudge(L.InH, 1));
    if (Rng() % 4 == 0)
      L.Stride = L.Stride == 1 ? 2 : 1;
    std::string Key = X86->convKey(L);
    std::string KeyGroup, Body;
    FullScanReference::split(Key, KeyGroup, Body);
    if (Group.empty())
      Group = KeyGroup;
    if (KeyGroup == Group && Seen.insert(Key).second)
      Keys.push_back(Key);
  }
  return Keys;
}

} // namespace

TEST(TransferIndexParity, SameSeedAsTheFullScanOnAFullZooGroup) {
  std::mt19937 Rng(20261018);
  // 600 distinct keys: the first 512 fill the group, the rest are refused
  // by the cap and come back as queries the index has never seen.
  std::vector<std::string> Keys = perturbedZooKeys(600, Rng);
  TransferIndex Index;
  FullScanReference Reference;
  for (size_t I = 0; I < Keys.size(); ++I) {
    int Winner = static_cast<int>(Rng() % 64);
    Index.record(Keys[I], Winner);
    Reference.record(Keys[I], Winner);
  }

  // Fresh perturbations, recorded keys (exact matches) and refused keys.
  // Each reference scan computes 512 full-cutoff distances, so the
  // thousands of queries are in the short-key tests below.
  std::vector<std::string> Queries = perturbedZooKeys(50, Rng);
  for (size_t I = 0; I < Keys.size(); I += 20)
    Queries.push_back(Keys[I]);
  for (size_t I = TransferIndex::GroupCap; I < Keys.size(); I += 4)
    Queries.push_back(Keys[I]);
  for (const std::string &Q : Queries)
    ASSERT_EQ(Index.nearest(Q), Reference.nearest(Q)) << Q;
}

TEST(TransferIndexParity, TiesGoToTheFirstBodyLikeTheFullScan) {
  // Short bodies a few edits apart over a four-token alphabet: most
  // queries have several neighbors at the same least distance, at
  // different token counts, so the visiting order differs from body
  // order and only the tie rule decides.
  std::mt19937 Rng(4242);
  std::vector<std::string> Base;
  for (int I = 0; I < 40; ++I)
    Base.push_back(I % 3 ? "7" : "x");
  size_t Ties = 0, Unseeded = 0, Queries = 0;
  for (int Round = 0; Round < 20; ++Round) {
    TransferIndex Index;
    FullScanReference Reference;
    std::string Group = "t|h" + std::to_string(Round) + "|conv2d|";
    for (int I = 0; I < 40; ++I) {
      std::string Key = Group + editedBody(Base, Rng, 6);
      Index.record(Key, I);
      Reference.record(Key, I);
    }
    for (int I = 0; I < 100; ++I) {
      std::string Key = Group + editedBody(Base, Rng, 10);
      size_t AtBest = 0;
      int Want = Reference.nearest(Key, &AtBest);
      ASSERT_EQ(Index.nearest(Key), Want) << Key;
      ++Queries;
      Ties += Want >= 0 && AtBest > 1;
      Unseeded += Want < 0;
    }
  }
  EXPECT_EQ(Queries, 20u * 100u);
  // Both outcomes occur, and many picks are decided by the tie rule.
  EXPECT_GT(Ties, Queries / 5);
  EXPECT_GT(Unseeded, 0u);
  EXPECT_LT(Unseeded, Queries / 2);
}

TEST(TransferIndexParity, PrefersTheEarlierBodyAtEqualDistanceFurtherInLength) {
  // The query is one edit from both bodies: ",b ..." inserts one token,
  // "c ..." substitutes one. ",b ..." sorts first but has one token more,
  // so it is visited second: a scan that stopped once the token-count
  // gap reached the best distance would keep "c ...".
  TransferIndex Index;
  FullScanReference Reference;
  const std::string G = "t|h|conv2d|";
  const std::string Query = G + "b 1 2 3 4 5 6 7 8 9";
  for (const auto &[Body, Winner] :
       {std::pair<std::string, int>{"c 1 2 3 4 5 6 7 8 9", 1},
        {",b 1 2 3 4 5 6 7 8 9", 2}}) {
    Index.record(G + Body, Winner);
    Reference.record(G + Body, Winner);
  }
  EXPECT_EQ(Reference.nearest(Query), 2);
  EXPECT_EQ(Index.nearest(Query), 2);
}

TEST(TransferIndexParity, EdgeCases) {
  TransferIndex Index;
  FullScanReference Reference;
  auto Record = [&](const std::string &Key, int Winner) {
    Index.record(Key, Winner);
    Reference.record(Key, Winner);
  };
  auto ExpectSame = [&](const std::string &Key, int Want) {
    EXPECT_EQ(Reference.nearest(Key), Want) << Key;
    EXPECT_EQ(Index.nearest(Key), Want) << Key;
  };
  const std::string G = "x86|abc|conv2d|";

  // An empty index, and a group nothing was recorded into.
  ExpectSame(G + "1 2 3", -1);
  Record(G + "1 2 3", 5);
  ExpectSame("arm|abc|conv2d|1 2 3", -1);

  // Exact match, and a near miss seeded by it.
  ExpectSame(G + "1 2 3", 5);
  ExpectSame(G + "1 2 4", 5);

  // Malformed keys (fewer than three '|') neither record nor seed.
  Record("x86|abc|1 2 3", 9);
  ExpectSame("x86|abc|1 2 3", -1);
  ExpectSame("no separators", -1);

  // A fallback report (no winner) is not recorded: its own key is
  // seeded by its neighbor.
  Record(G + "9 9 9", -1);
  ExpectSame(G + "9 9 9", 5);

  // A known body takes its new winner.
  Record(G + "1 2 3", 6);
  ExpectSame(G + "1 2 3", 6);

  // At the cap a new body is refused but a known one still updates.
  for (size_t I = 1; I < TransferIndex::GroupCap; ++I)
    Record(G + "1 2 3 " + std::to_string(I * 1000), static_cast<int>(I));
  Record(G + "1 2 8", 77);
  ExpectSame(G + "1 2 8", 6); // Nearest is "1 2 3", not the refused body.
  Record(G + "1 2 3 1000", 88);
  ExpectSame(G + "1 2 3 1000", 88);
}

TEST(TransferIndexConcurrency, ScansAndRecordsRaceFree) {
  // Four threads scan while two record into the same group. Every seed a
  // scan returns was recorded by someone, and once the writers finish
  // the index agrees with the full scan over the same records.
  std::mt19937 Rng(77);
  std::vector<std::string> Base;
  for (int I = 0; I < 40; ++I)
    Base.push_back(I % 3 ? "7" : "x");
  const std::string G = "x86|abc|conv2d|";
  std::vector<std::string> Keys, Queries;
  std::set<std::string> Distinct;
  while (Keys.size() < 200) {
    std::string Key = G + editedBody(Base, Rng, 6);
    if (Distinct.insert(Key).second)
      Keys.push_back(Key);
  }
  for (int I = 0; I < 100; ++I)
    Queries.push_back(G + editedBody(Base, Rng, 8));

  // The string distance keeps per-thread state: each scanner also runs
  // the (A1, B), (A2, B), (A1, B), copy-of-A1 sequence against fresh
  // distances.
  const std::string &A1 = Queries[0], &A2 = Queries[1], &B = Keys[0];
  const size_t D1 = freshDistance(A1, B), D2 = freshDistance(A2, B);

  // Winner = key index, so each writer's winners are its own.
  TransferIndex Index;
  std::atomic<bool> BadSeed{false}, BadDistance{false};
  std::vector<std::thread> Threads;
  for (int W = 0; W < 2; ++W)
    Threads.emplace_back([&, W] {
      for (size_t I = static_cast<size_t>(W); I < Keys.size(); I += 2)
        Index.record(Keys[I], static_cast<int>(I));
    });
  for (int R = 0; R < 4; ++R)
    Threads.emplace_back([&, R] {
      for (int Pass = 0; Pass < 2; ++Pass)
        for (size_t I = static_cast<size_t>(R); I < Queries.size(); I += 4) {
          int Seed = Index.nearest(Queries[I]);
          if (Seed < -1 || Seed >= static_cast<int>(Keys.size()))
            BadSeed = true;
          if (structuralDistance(A1, B, 100000) != D1 ||
              structuralDistance(A2, B, 100000) != D2 ||
              structuralDistance(A1, B, 100000) != D1 ||
              structuralDistance(std::string(A1), B, 100000) != D1)
            BadDistance = true;
        }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_FALSE(BadSeed.load());
  EXPECT_FALSE(BadDistance.load());

  // The keys are distinct and the group stays under the cap, so the
  // order the writers interleaved in does not change the index.
  FullScanReference Reference;
  for (size_t I = 0; I < Keys.size(); ++I)
    Reference.record(Keys[I], static_cast<int>(I));
  for (const std::string &Q : Queries)
    EXPECT_EQ(Index.nearest(Q), Reference.nearest(Q)) << Q;
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
