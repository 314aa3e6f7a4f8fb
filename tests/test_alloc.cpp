//===- tests/test_alloc.cpp - Heap allocations of kernel lowering ---------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counts the calls to operator new that lowering one tuned kernel makes.
/// The binary replaces the global operator new with a counting one, tunes
/// one fixed zoo layer on every shipped target, rebuilds the winner's plan
/// and lowers it through lowerPlan (lower, the Replacer, verifyTIR). Each
/// count must stay within its target's budget, so a change that brings
/// back per-node maps, throwaway vectors or temporary trees on the
/// codegen path fails here before it shows in a benchmark.
///
//===----------------------------------------------------------------------===//

#include "SpecConformance.h"
#include "core/Pipeline.h"
#include "models/ModelZoo.h"
#include "tir/TIRPrinter.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>

namespace {
/// operator new calls made by this thread so far.
thread_local int64_t Allocations = 0;

void *countedAlloc(std::size_t Size) {
  ++Allocations;
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

// Not inlined: a caller that saw the free() would take it for a mismatch
// with the operator new it allocated with (-Wmismatched-new-delete).
__attribute__((noinline)) void countedFree(void *P) noexcept { std::free(P); }
} // namespace

// Every non-aligned form is replaced, so no allocation made by another
// operator new (a sanitizer runtime's, say) reaches countedFree.
void *operator new(std::size_t Size) { return countedAlloc(Size); }
void *operator new[](std::size_t Size) { return countedAlloc(Size); }
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  try {
    return countedAlloc(Size);
  } catch (const std::bad_alloc &) {
    return nullptr;
  }
}
void *operator new[](std::size_t Size, const std::nothrow_t &T) noexcept {
  return ::operator new(Size, T);
}
void operator delete(void *P) noexcept { countedFree(P); }
void operator delete[](void *P) noexcept { countedFree(P); }
void operator delete(void *P, std::size_t) noexcept { countedFree(P); }
void operator delete[](void *P, std::size_t) noexcept { countedFree(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept {
  countedFree(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  countedFree(P);
}

using namespace unit;
using namespace unit::testutil;

namespace {

/// The operator new calls \p Fn makes on this thread.
template <typename Fn> int64_t allocationsOf(Fn &&F) {
  int64_t Before = Allocations;
  F();
  return Allocations - Before;
}

TEST(Allocations, CountingOperatorNewSeesEveryNode) {
  IterVar I;
  ExprRef E;
  int64_t N = allocationsOf([&] {
    I = makeAxis("i", 4096);
    E = makeVar(I) * makeIntImm(4096) + makeVar(I);
  });
  // The axis, two Vars, a fresh 4096 immediate, a Mul and an Add.
  EXPECT_EQ(N, 6);
}

TEST(Allocations, LoweringATunedKernelStaysWithinItsBudget) {
  // resnet-18's first stride-2 3x3 conv, on every shipped target: the
  // direct conv on a CPU target, the fused implicit GEMM on a GPU one.
  ConvLayer Layer;
  for (const ConvLayer &L : makeResnet18().Convs)
    if (L.Name == "s2.b0.conv1")
      Layer = L;
  ASSERT_EQ(Layer.Name, "s2.b0.conv1");

  // The heap allocations of the plan rebuild and of lowerPlan. Each bound
  // is the count measured when it was set plus about 10% headroom; the
  // counts before the codegen path was cut down are in CHANGES.md.
  struct Budget {
    int64_t Plan, Lower;
  };
  const std::map<std::string, Budget> Budgets = {
      {"x86", {46, 112}},     {"arm", {33, 111}},
      {"nvgpu", {34, 193}},   {"x86-amx", {46, 112}},
      {"arm-sve", {39, 116}}, {"fixed16-dma", {47, 114}},
      {"nvgpu-s8", {34, 191}},
  };
  for (const std::string &Id : shippedTargetIds()) {
    TargetSpec Spec = TargetRegistry::instance().specFor(Id);
    bool Cpu = Spec.Engine == TargetSpec::EngineKind::CpuDot;
    std::vector<TunedView> Views = tunedConvViews(Spec, Layer);
    ASSERT_FALSE(Views.empty()) << Id;
    const TunedView &View = Views.front();
    TunedKernel Tuned = Cpu ? tuneCpu(View.Op, View.Match, Spec.Cpu)
                            : tuneGpu(View.Op, View.Match, Spec.Gpu);
    ASSERT_GE(Tuned.BestCandidateIndex, 0) << Id;
    auto Best = static_cast<size_t>(Tuned.BestCandidateIndex);
    auto Build = [&] {
      return Cpu ? buildCpuPlan(View.Op, View.Match,
                                defaultCpuTuningPairs()[Best])
                 : buildGpuPlan(View.Op, View.Match,
                                defaultGpuTuningConfigs()[Best]);
    };
    // One lowering first: it pays for what a process builds once.
    StmtRef Warm = lowerPlan(Build());

    TensorizePlan Plan;
    int64_t PlanAllocs = allocationsOf([&] { Plan = Build(); });
    StmtRef Out;
    int64_t LowerAllocs = allocationsOf([&] { Out = lowerPlan(Plan); });
    EXPECT_EQ(stmtToString(Out), stmtToString(Warm)) << Id;
    std::printf("%s: plan %lld, lowerPlan %lld allocations\n", Id.c_str(),
                static_cast<long long>(PlanAllocs),
                static_cast<long long>(LowerAllocs));
    const Budget &B = Budgets.at(Id);
    EXPECT_LE(PlanAllocs, B.Plan) << Id;
    EXPECT_LE(LowerAllocs, B.Lower) << Id;
  }
}

} // namespace
