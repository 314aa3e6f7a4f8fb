//===- tests/test_runtime.cpp - CompilerSession / KernelCache tests --------===//

#include "TestUtil.h"
#include "core/Isomorphism.h"
#include "graph/Executor.h"
#include "models/ModelZoo.h"
#include "runtime/CompileRequest.h"
#include "runtime/CompilerSession.h"
#include "runtime/KernelCache.h"
#include "target/TargetRegistry.h"
#include "runtime/Workload.h"
#include "support/ThreadPool.h"
#include "tuner/Tuner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unistd.h>

using namespace unit;
using namespace unit::testutil;

namespace {

/// Sequential-mode session: one pool thread, no shape or candidate
/// concurrency. The determinism tests compare against this.
SessionConfig sequentialConfig() {
  SessionConfig C;
  C.Threads = 1;
  C.ParallelShapes = false;
  C.ParallelCandidates = false;
  return C;
}

//===----------------------------------------------------------------------===//
// Canonical kernel keys
//===----------------------------------------------------------------------===//

TEST(CanonicalKey, RenamedOpsShareAKey) {
  // Same structure, every name different: variables, tensors, op.
  OpFixture A = makeMatmulU8I8(64, 64, 64);

  TensorRef X = makeTensor("activations", {64, 64}, DataType::u8());
  TensorRef W = makeTensor("weights", {64, 64}, DataType::i8());
  TensorRef O = makeTensor("result", {64, 64}, DataType::i32());
  IterVar Row = makeAxis("row", 64), Col = makeAxis("col", 64);
  IterVar Depth = makeReduceAxis("depth", 64);
  ExprRef Prod =
      makeCast(DataType::i32(), makeLoad(X, {makeVar(Row), makeVar(Depth)})) *
      makeCast(DataType::i32(), makeLoad(W, {makeVar(Col), makeVar(Depth)}));
  ComputeOpRef B = ComputeOp::create(
      "renamed_matmul", O, {Row, Col},
      makeReduce(ReduceKind::Sum, Prod, {Depth}));

  EXPECT_EQ(canonicalComputeKey(*A.Op), canonicalComputeKey(*B));
}

TEST(CanonicalKey, DifferentShapesDiffer) {
  OpFixture A = makeMatmulU8I8(64, 64, 64);
  OpFixture B = makeMatmulU8I8(64, 64, 128);
  EXPECT_NE(canonicalComputeKey(*A.Op), canonicalComputeKey(*B.Op));
}

TEST(CanonicalKey, DifferentDataTypesDiffer) {
  OpFixture A = makeMatmulU8I8(64, 64, 64);
  OpFixture B = makeGemmF16(64, 64, 64);
  EXPECT_NE(canonicalComputeKey(*A.Op), canonicalComputeKey(*B.Op));
}

TEST(CanonicalKey, OperandOrderMatters) {
  // a[i,k]*b[j,k] vs a[j,k]*b[i,k]: same tensors, different access roles.
  OpFixture A = makeMatmulU8I8(32, 64, 16);
  TensorRef X = makeTensor("a", {32, 16}, DataType::u8());
  TensorRef W = makeTensor("b", {64, 16}, DataType::i8());
  TensorRef O = makeTensor("c", {32, 64}, DataType::i32());
  IterVar I = makeAxis("i", 32), J = makeAxis("j", 64);
  IterVar K = makeReduceAxis("k", 16);
  ExprRef Prod =
      makeCast(DataType::i32(), makeLoad(W, {makeVar(J), makeVar(K)})) *
      makeCast(DataType::i32(), makeLoad(X, {makeVar(I), makeVar(K)}));
  ComputeOpRef B = ComputeOp::create(
      "swapped", O, {I, J}, makeReduce(ReduceKind::Sum, Prod, {K}));
  EXPECT_NE(canonicalComputeKey(*A.Op), canonicalComputeKey(*B));
}

TEST(CanonicalKey, ConvLayersWithRenamedVarsHitOneEntry) {
  TargetBackendRef X86 = TargetRegistry::instance().get("x86");
  ConvLayer A{"stage1_unit2_conv", 64, 56, 56, 64, 3, 3, 1, 1, 1, false};
  ConvLayer B{"stage4_unit1_sc", 64, 56, 56, 64, 3, 3, 1, 1, 1, false};
  EXPECT_EQ(X86->convKey(A), X86->convKey(B));

  ConvLayer C = A;
  C.OutC = 128;
  EXPECT_NE(X86->convKey(A), X86->convKey(C));

  // Same layer on a different backend must never collide.
  TargetBackendRef Arm = TargetRegistry::instance().get("arm");
  EXPECT_NE(X86->convKey(A), Arm->convKey(A));
}

//===----------------------------------------------------------------------===//
// KernelCache
//===----------------------------------------------------------------------===//

TEST(KernelCache, HitSkipsTheCompiler) {
  KernelCache Cache;
  std::shared_future<KernelReport> First, Again;
  KernelCache::ComputeTicket Ticket;
  ASSERT_EQ(Cache.resolveThen("k", nullptr, &First, &Ticket),
            KernelCache::ResolveKind::MustCompute);
  KernelReport R;
  R.Seconds = 1.5;
  Cache.fulfill("k", Ticket, R);
  // The second resolve is served by the ready entry: no ticket, no compile.
  EXPECT_EQ(Cache.resolveThen("k", nullptr, &Again, nullptr),
            KernelCache::ResolveKind::Ready);
  EXPECT_EQ(First.get().Seconds, Again.get().Seconds);
  EXPECT_EQ(Cache.stats().Hits, 1u);
  EXPECT_EQ(Cache.stats().Misses, 1u);
  EXPECT_TRUE(Cache.contains("k"));
  EXPECT_FALSE(Cache.contains("other"));
  ASSERT_TRUE(Cache.lookup("k").has_value());
  EXPECT_EQ(Cache.lookup("k")->Seconds, 1.5);
}

TEST(KernelCache, ConcurrentMissesCompileOnce) {
  KernelCache Cache;
  std::atomic<int> Compiles{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < 8; ++T)
    Threads.emplace_back([&] {
      std::shared_future<KernelReport> Fut;
      KernelCache::ComputeTicket Ticket;
      if (Cache.resolveThen("shared", nullptr, &Fut, &Ticket) ==
          KernelCache::ResolveKind::MustCompute) {
        Compiles.fetch_add(1);
        // Widen the race window so losers really do wait on the future.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        KernelReport R;
        R.Seconds = 2.0;
        Cache.fulfill("shared", Ticket, R);
      }
      EXPECT_EQ(Fut.get().Seconds, 2.0);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Compiles.load(), 1);
  EXPECT_EQ(Cache.size(), 1u);
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, ParallelForCoversEveryIndex) {
  ThreadPool Pool(4);
  std::vector<int> Touched(1000, 0);
  Pool.parallelFor(Touched.size(), [&](size_t I) { Touched[I] += 1; });
  for (int V : Touched)
    EXPECT_EQ(V, 1);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool Pool(2);
  std::atomic<int> Sum{0};
  Pool.parallelFor(8, [&](size_t) {
    Pool.parallelFor(8, [&](size_t) { Sum.fetch_add(1); });
  });
  EXPECT_EQ(Sum.load(), 64);
}

//===----------------------------------------------------------------------===//
// Tuner: parallel candidate scoring is bit-identical to sequential
//===----------------------------------------------------------------------===//

TEST(ParallelTuning, CpuSearchMatchesSequential) {
  OpFixture F = makeConv2D(16, 16, 16, 64, 3, 3);
  TensorIntrinsicRef Vnni =
      IntrinsicRegistry::instance().lookup("vnni.vpdpbusd");
  std::optional<MatchResult> M = inspect(F.Op, Vnni);
  ASSERT_TRUE(M.has_value());
  CpuMachine Machine = CpuMachine::cascadeLake();

  TunedKernel Seq = tuneCpu(F.Op, *M, Machine);
  ThreadPool Pool(4);
  TunedKernel Par = tuneCpu(F.Op, *M, Machine, &Pool);

  EXPECT_EQ(Seq.BestCandidateIndex, Par.BestCandidateIndex);
  EXPECT_EQ(Seq.CandidatesTried, Par.CandidatesTried);
  ASSERT_EQ(Seq.CandidateLatencies.size(), Par.CandidateLatencies.size());
  for (size_t I = 0; I < Seq.CandidateLatencies.size(); ++I)
    EXPECT_EQ(Seq.CandidateLatencies[I], Par.CandidateLatencies[I]);
  EXPECT_EQ(Seq.LatencySeconds, Par.LatencySeconds);
}

//===----------------------------------------------------------------------===//
// CompilerSession
//===----------------------------------------------------------------------===//

TEST(CompilerSession, IsomorphicOpsShareOneCompile) {
  CompilerSession Session(sequentialConfig());
  OpFixture A = makeMatmulU8I8(64, 64, 64);
  KernelReport RA = Session.compile({Workload::op(A.Op), "x86"});
  EXPECT_TRUE(RA.Tensorized);
  EXPECT_EQ(Session.cache().size(), 1u);

  // Renamed twin: must be a cache hit, not a second entry.
  OpFixture B = makeMatmulU8I8(64, 64, 64);
  KernelReport RB = Session.compile({Workload::op(B.Op), "x86"});
  EXPECT_EQ(Session.cache().size(), 1u);
  EXPECT_EQ(Session.cache().stats().Hits, 1u);
  EXPECT_EQ(RA.Seconds, RB.Seconds);
  EXPECT_EQ(RA.BestCandidateIndex, RB.BestCandidateIndex);
}

TEST(CompilerSession, EnginesShareTheSessionCache) {
  auto Session = std::make_shared<CompilerSession>(sequentialConfig());
  UnitCpuEngine A(CpuMachine::cascadeLake(), "x86", Session);
  UnitCpuEngine B(CpuMachine::cascadeLake(), "x86", Session);
  ConvLayer L{"conv", 64, 28, 28, 128, 3, 3, 1, 1, 1, false};

  A.convReport(L);
  uint64_t MissesAfterA = Session->cache().stats().Misses;
  B.convReport(L); // Same machine + same shape: B hits A's entry.
  EXPECT_EQ(Session->cache().stats().Misses, MissesAfterA);
  EXPECT_GE(Session->cache().stats().Hits, 1u);
}

TEST(CompilerSession, ParallelModelCompileIsByteIdenticalToSequential) {
  Model Resnet = makeResnet18();

  CompilerSession Seq(sequentialConfig());
  SessionConfig ParConfig;
  ParConfig.Threads = 4;
  CompilerSession Par(ParConfig);

  ModelCompileResult A = Seq.compileModel(Resnet, "x86");
  ModelCompileResult B = Par.compileModel(Resnet, "x86");

  ASSERT_EQ(A.Layers.size(), Resnet.Convs.size());
  ASSERT_EQ(A.Layers.size(), B.Layers.size());
  EXPECT_EQ(A.DistinctShapes, B.DistinctShapes);
  for (size_t I = 0; I < A.Layers.size(); ++I) {
    // Byte-identical per-layer reports: the modeled latency doubles must
    // match exactly, not approximately.
    EXPECT_EQ(0, std::memcmp(&A.Layers[I].Seconds, &B.Layers[I].Seconds,
                             sizeof(double)))
        << "layer " << I << " (" << Resnet.Convs[I].Name << ")";
    EXPECT_EQ(A.Layers[I].Tensorized, B.Layers[I].Tensorized);
    EXPECT_EQ(A.Layers[I].BestCandidateIndex, B.Layers[I].BestCandidateIndex);
    EXPECT_EQ(A.Layers[I].CandidatesTried, B.Layers[I].CandidatesTried);
    EXPECT_EQ(A.Layers[I].IntrinsicName, B.Layers[I].IntrinsicName);
  }
}

TEST(CompilerSession, SecondModelCompileIsAllHits) {
  CompilerSession Session(sequentialConfig());
  Model Resnet = makeResnet18();
  ModelCompileResult Cold = Session.compileModel(Resnet, "x86");
  ModelCompileResult Warm = Session.compileModel(Resnet, "x86");
  EXPECT_EQ(Warm.CacheHitLayers, Resnet.Convs.size());
  ASSERT_EQ(Cold.Layers.size(), Warm.Layers.size());
  for (size_t I = 0; I < Cold.Layers.size(); ++I)
    EXPECT_EQ(Cold.Layers[I].Seconds, Warm.Layers[I].Seconds);
}

TEST(CompilerSession, ModelReportsAgreeWithEngineReports) {
  auto Session = std::make_shared<CompilerSession>(sequentialConfig());
  UnitCpuEngine Engine(CpuMachine::cascadeLake(), "x86", Session);
  Model Resnet = makeResnet18();
  ModelCompileResult R = Session->compileModel(Resnet, "x86");
  // The registry's default X86 backend is Cascade Lake, so the engine's
  // per-layer numbers must be the same kernels.
  for (size_t I = 0; I < Resnet.Convs.size(); ++I)
    EXPECT_EQ(R.Layers[I].Seconds, Engine.convReport(Resnet.Convs[I]).Seconds);
}

TEST(CompilerSession, ConcurrentModelCompilesOnOneSessionComplete) {
  // Two threads compiling overlapping shapes through one session: the
  // single-flight losers must never deadlock against a winner that is
  // helping its own candidate tasks (the task-group restriction in
  // ThreadPool::parallelFor).
  SessionConfig C;
  C.Threads = 2;
  CompilerSession Session(C);
  Model Resnet = makeResnet18();
  ModelCompileResult RA, RB;
  std::thread A([&] { RA = Session.compileModel(Resnet, "x86"); });
  std::thread B([&] { RB = Session.compileModel(Resnet, "x86"); });
  A.join();
  B.join();

  CompilerSession Ref(sequentialConfig());
  ModelCompileResult Expected = Ref.compileModel(Resnet, "x86");
  ASSERT_EQ(RA.Layers.size(), Expected.Layers.size());
  for (size_t I = 0; I < Expected.Layers.size(); ++I) {
    EXPECT_EQ(RA.Layers[I].Seconds, Expected.Layers[I].Seconds);
    EXPECT_EQ(RB.Layers[I].Seconds, Expected.Layers[I].Seconds);
  }
}

TEST(CompilerSession, SameNameDifferentMachinesDoNotShareEntries) {
  // Same machine label, different frequency: the fingerprint salt must
  // keep their kernels apart.
  CpuMachine Fast = CpuMachine::cascadeLake();
  CpuMachine Slow = CpuMachine::cascadeLake();
  Slow.FreqGHz = 1.0;
  CpuBackend A(Fast, "x86"), B(Slow, "x86");
  ConvLayer L{"conv", 64, 28, 28, 128, 3, 3, 1, 1, 1, false};
  EXPECT_NE(A.convKey(L), B.convKey(L));

  auto Session = std::make_shared<CompilerSession>(sequentialConfig());
  UnitCpuEngine EA(Fast, "x86", Session);
  UnitCpuEngine EB(Slow, "x86", Session);
  EXPECT_LT(EA.convSeconds(L), EB.convSeconds(L));
}

TEST(CompilerSession, GpuModelCompileWorks) {
  CompilerSession Session(sequentialConfig());
  Model Resnet = makeResnet18();
  ModelCompileResult R = Session.compileModel(Resnet, "nvgpu");
  ASSERT_EQ(R.Layers.size(), Resnet.Convs.size());
  for (const KernelReport &L : R.Layers)
    EXPECT_GT(L.Seconds, 0.0);
}

//===----------------------------------------------------------------------===//
// Workload: the one canonical compile currency
//===----------------------------------------------------------------------===//

TEST(Workload, DenseCanonicalizesToOneByOneConv) {
  TargetBackendRef X86 = TargetRegistry::instance().get("x86");
  Workload Dense = Workload::dense("fc", 512, 1000);
  ConvLayer AsConv;
  AsConv.Name = "fc_as_conv";
  AsConv.InC = 512;
  AsConv.OutC = 1000;
  // Dense-as-1x1: the dense workload and its conv equivalent must share
  // one cache entry (names never enter keys).
  EXPECT_EQ(Dense.cacheKey(*X86), Workload::conv2d(AsConv).cacheKey(*X86));
  EXPECT_EQ(Dense.kind(), Workload::Kind::Conv2d);
}

TEST(Workload, KindsProduceDistinctKeys) {
  TargetBackendRef X86 = TargetRegistry::instance().get("x86");
  ConvLayer L{"c", 64, 28, 28, 128, 3, 3, 1, 1, 1, false};
  Conv3dLayer L3;
  L3.InC = 64;
  L3.InD = L3.InH = L3.InW = 14;
  L3.OutC = 128;
  L3.K = 3;
  L3.Pad = 1;
  EXPECT_NE(Workload::conv2d(L).cacheKey(*X86),
            Workload::conv3d(L3).cacheKey(*X86));
}

TEST(Workload, RequestBudgetSaltsTheKey) {
  TargetBackendRef X86 = TargetRegistry::instance().get("x86");
  ConvLayer L{"c", 64, 28, 28, 128, 3, 3, 1, 1, 1, false};
  CompileOptions Capped;
  Capped.MaxCandidates = 1;
  CompileRequest Full(Workload::conv2d(L), X86);
  CompileRequest Budgeted(Workload::conv2d(L), X86, Capped);
  EXPECT_NE(Full.cacheKey(), Budgeted.cacheKey());
}

TEST(CompileOptions, TuningBudgetCapsTheSearch) {
  CompilerSession Session(sequentialConfig());
  ConvLayer L{"c", 64, 28, 28, 128, 3, 3, 1, 1, 1, false};
  KernelReport Full =
      Session.compile({Workload::conv2d(L), "x86"});
  CompileOptions Capped;
  Capped.MaxCandidates = 1;
  KernelReport One =
      Session.compile({Workload::conv2d(L), "x86", Capped});
  EXPECT_GT(Full.CandidatesTried, 1);
  EXPECT_EQ(One.CandidatesTried, 1);
  EXPECT_EQ(One.BestCandidateIndex, 0);
  // Distinct keys: the budgeted report must not shadow the full one.
  EXPECT_EQ(Session.cache().size(), 2u);
  EXPECT_LE(Full.Seconds, One.Seconds);
}

//===----------------------------------------------------------------------===//
// Async jobs: exception propagation + single-flight
//===----------------------------------------------------------------------===//

/// Minimal synthetic backend for the async tests: counts compiles,
/// optionally sleeps (to widen race windows) and fails the first N
/// compiles, without running any real tuning.
class ProbeBackend : public TargetBackend {
public:
  std::string Salt;
  mutable std::atomic<int> Compiles{0};
  int ThrowFirstN = 0;
  int SleepMillis = 0;
  double ReportSeconds = 0.25;
  /// When valid, every compile blocks on it before finishing — the
  /// deterministic way to hold a winner in flight while a test piles
  /// joiners onto its key.
  std::shared_future<void> Gate;

  explicit ProbeBackend(std::string SaltIn) : Salt(std::move(SaltIn)) {}

  const std::string &id() const override {
    static const std::string Id = "probe";
    return Id;
  }
  std::string cacheSalt() const override { return "probe|" + Salt; }
  const QuantScheme &scheme() const override {
    static QuantScheme S = TargetRegistry::instance().get("x86")->scheme();
    return S;
  }
  std::string convKey(const ConvLayer &L) const override {
    return cacheSalt() + "|conv|" + L.shapeKey();
  }
  KernelReport compileConv(const ConvLayer &, ThreadPool *,
                           const CompileOptions &) const override {
    return run();
  }
  KernelReport compileOp(const ComputeOpRef &, ThreadPool *,
                         const CompileOptions &) const override {
    return run();
  }

private:
  KernelReport run() const {
    int N = Compiles.fetch_add(1) + 1;
    if (Gate.valid())
      Gate.wait();
    if (SleepMillis)
      std::this_thread::sleep_for(std::chrono::milliseconds(SleepMillis));
    if (N <= ThrowFirstN)
      throw std::runtime_error("probe backend failure");
    KernelReport R;
    R.Seconds = ReportSeconds;
    return R;
  }
};

TEST(CompileAsync, ExceptionPropagatesAndKeyStaysRetryable) {
  SessionConfig C;
  C.Threads = 2;
  CompilerSession Session(C);
  auto Backend = std::make_shared<ProbeBackend>("throwing");
  Backend->ThrowFirstN = 1;
  ConvLayer L{"c", 8, 8, 8, 8, 1, 1, 1, 0, 0, false};

  CompileJob Failed =
      Session.compileAsync({Workload::conv2d(L), Backend});
  EXPECT_THROW(Failed.get(), std::runtime_error);
  // The failure must evict the entry, not poison the key: the next
  // request compiles fresh and succeeds.
  CompileJob Retry = Session.compileAsync({Workload::conv2d(L), Backend});
  EXPECT_EQ(Retry.get().Seconds, 0.25);
  EXPECT_EQ(Backend->Compiles.load(), 2);
}

TEST(CompileAsync, ManyWaitersOneKeyCompileOnce) {
  SessionConfig C;
  C.Threads = 4;
  CompilerSession Session(C);
  auto Backend = std::make_shared<ProbeBackend>("singleflight");
  Backend->SleepMillis = 10; // Widen the window so waiters really wait.
  ConvLayer L{"c", 8, 8, 8, 8, 1, 1, 1, 0, 0, false};

  std::vector<CompileJob> Jobs;
  for (int I = 0; I < 8; ++I)
    Jobs.push_back(Session.compileAsync({Workload::conv2d(L), Backend}));
  for (const CompileJob &Job : Jobs)
    EXPECT_EQ(Job.get().Seconds, 0.25);
  EXPECT_EQ(Backend->Compiles.load(), 1);
  EXPECT_EQ(Session.cache().size(), 1u);
}

TEST(CompileAsync, SixtyFourContinuationsOnTwoThreadsNeverPark) {
  // The parked-join regression test: 64 concurrent joins on one key over
  // a pool of 2. Under the old engine each join parked a worker on the
  // winner's future, so anything past 2 pending joins serialized behind
  // the queue; with continuations the joins cost a waiter-list slot each
  // and the whole fan-in drains the moment the (gated) winner finishes.
  SessionConfig C;
  C.Threads = 2;
  CompilerSession Session(C);
  auto Backend = std::make_shared<ProbeBackend>("contention");
  std::promise<void> Gate;
  Backend->Gate = Gate.get_future().share();
  ConvLayer L{"c", 8, 8, 8, 8, 1, 1, 1, 0, 0, false};

  std::atomic<int> Fired{0}, Succeeded{0}, ComputedCount{0};
  // Submit from 8 threads to make the joins genuinely concurrent; the
  // first submission plants the in-flight entry synchronously, so every
  // other one is a continuation join while the winner sits on the gate.
  std::vector<std::thread> Submitters;
  for (int T = 0; T < 8; ++T)
    Submitters.emplace_back([&] {
      for (int I = 0; I < 8; ++I)
        Session.compileAsyncThen(
            {Workload::conv2d(L), Backend},
            [&](const KernelReport *Report, std::exception_ptr Error,
                bool Computed) {
              Fired.fetch_add(1);
              if (Report && !Error)
                Succeeded.fetch_add(1);
              if (Computed)
                ComputedCount.fetch_add(1);
            });
    });
  for (std::thread &T : Submitters)
    T.join();
  Gate.set_value();
  Session.quiesce();

  EXPECT_EQ(Fired.load(), 64);
  EXPECT_EQ(Succeeded.load(), 64);
  EXPECT_EQ(ComputedCount.load(), 1);
  EXPECT_EQ(Backend->Compiles.load(), 1);
  SessionStats Stats = Session.sessionStats();
  EXPECT_EQ(Stats.FreshDispatches, 1u);
  EXPECT_EQ(Stats.ContinuationJoins + Stats.InlineReadyHits, 63u);
}

TEST(CompileAsync, ParallelModelCountsEveryFreshCompileBeforeReturning) {
  // A slow observer holds each pool worker's task open after its result
  // is published (tasks the joining thread drains itself stay fast), so
  // compileModel sees every future ready while workers are still running.
  // Its FreshCompiles counter must already be complete then: it lives on
  // compileModel's frame.
  SessionConfig C;
  C.Threads = 2;
  CompilerSession Session(C);
  std::thread::id Caller = std::this_thread::get_id();
  Session.setCompileObserver(
      [Caller](const std::string &, const KernelReport &) {
        if (std::this_thread::get_id() != Caller)
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
      });
  auto Backend = std::make_shared<ProbeBackend>("freshcount");
  Backend->SleepMillis = 2; // Long enough for the workers to take tasks.
  ModelCompileResult R = Session.compileModel(makeResnet18(), *Backend);
  Session.quiesce();
  EXPECT_GT(R.DistinctShapes, 1u);
  EXPECT_EQ(R.FreshCompiles, R.DistinctShapes);
  EXPECT_EQ(static_cast<size_t>(Backend->Compiles.load()), R.DistinctShapes);
}

TEST(CompileAsync, FailureDrainsEveryRegisteredWaiter) {
  SessionConfig C;
  C.Threads = 2;
  CompilerSession Session(C);
  auto Backend = std::make_shared<ProbeBackend>("drainfail");
  Backend->ThrowFirstN = 1;
  std::promise<void> Gate;
  Backend->Gate = Gate.get_future().share();
  ConvLayer L{"c", 8, 8, 8, 8, 1, 1, 1, 0, 0, false};

  // All 16 join the same gated winner, which then throws: every waiter
  // must observe the winner's exception, exactly once each.
  std::atomic<int> Fired{0}, Errored{0};
  for (int I = 0; I < 16; ++I)
    Session.compileAsyncThen(
        {Workload::conv2d(L), Backend},
        [&](const KernelReport *Report, std::exception_ptr Error, bool) {
          Fired.fetch_add(1);
          if (Error && !Report) {
            try {
              std::rethrow_exception(Error);
            } catch (const std::runtime_error &E) {
              if (std::string(E.what()) == "probe backend failure")
                Errored.fetch_add(1);
            } catch (...) {
            }
          }
        });
  Gate.set_value();
  Session.quiesce();
  EXPECT_EQ(Fired.load(), 16);
  EXPECT_EQ(Errored.load(), 16);
  EXPECT_EQ(Backend->Compiles.load(), 1);

  // The failure evicted the entry, not poisoned it: a retry compiles
  // fresh and succeeds (ThrowFirstN only fails the first).
  EXPECT_EQ(Session.compile({Workload::conv2d(L), Backend}).Seconds, 0.25);
  EXPECT_EQ(Backend->Compiles.load(), 2);
  EXPECT_EQ(Session.cache().size(), 1u);
}

TEST(CompileAsync, BatchSubmissionMatchesBlockingReports) {
  Model Resnet = makeResnet18();
  CompilerSession Seq(sequentialConfig());
  ModelCompileResult Expected = Seq.compileModel(Resnet, "x86");

  SessionConfig C;
  C.Threads = 4;
  CompilerSession Par(C);
  std::vector<CompileJob> Jobs;
  for (const ConvLayer &L : Resnet.Convs)
    Jobs.push_back(Par.compileAsync({Workload::conv2d(L), "x86"}));
  ASSERT_EQ(Jobs.size(), Expected.Layers.size());
  for (size_t I = 0; I < Jobs.size(); ++I) {
    const KernelReport &R = Jobs[I].get();
    EXPECT_EQ(0, std::memcmp(&R.Seconds, &Expected.Layers[I].Seconds,
                             sizeof(double)));
    EXPECT_EQ(R.BestCandidateIndex, Expected.Layers[I].BestCandidateIndex);
    EXPECT_EQ(R.IntrinsicName, Expected.Layers[I].IntrinsicName);
  }
}

//===----------------------------------------------------------------------===//
// Blocking / async parity
//===----------------------------------------------------------------------===//

/// The real x86 backend behind two test levers: the first compile after
/// GateNext is set parks on Gate (holding its winner in flight), and Throw
/// fails every compile. Keys, tuning, transfer seeds and candidate counts
/// are the real ones.
class ParityBackend : public TargetBackend {
public:
  TargetBackendRef Real = TargetRegistry::instance().get("x86");
  std::shared_future<void> Gate;
  mutable std::atomic<bool> GateNext{false};
  mutable std::atomic<bool> Started{false};
  bool Throw = false;

  const std::string &id() const override { return Real->id(); }
  std::string cacheSalt() const override { return Real->cacheSalt(); }
  const QuantScheme &scheme() const override { return Real->scheme(); }
  std::string convKey(const ConvLayer &L) const override {
    return Real->convKey(L);
  }
  KernelReport compileConv(const ConvLayer &L, ThreadPool *Pool,
                           const CompileOptions &Options) const override {
    if (GateNext.exchange(false)) {
      Started.store(true);
      Gate.wait();
    }
    if (Throw)
      throw std::runtime_error("parity backend failure");
    return Real->compileConv(L, Pool, Options);
  }
  KernelReport compileOp(const ComputeOpRef &Op, ThreadPool *Pool,
                         const CompileOptions &Options) const override {
    return Real->compileOp(Op, Pool, Options);
  }
};

enum class ParityCase { ReadyHit, InFlightJoin, Miss, PeerServed, Throwing };

/// What one measured request did, as seen from outside the session.
struct ParityObservation {
  bool Threw = false;
  KernelReport Report;
  bool Computed = false;
  uint64_t Seeds = 0;  ///< SessionStats::TransferSeeds delta.
  uint64_t Scored = 0; ///< tunerCandidatesScored() delta.
  uint64_t Cold = 0, Warm = 0, Join = 0; ///< Latency histogram growth.
};

/// Sets up \p Case in a fresh session, then resolves one request for the
/// target layer through compile() or compileAsyncThen().
ParityObservation observeParity(ParityCase Case, bool Async) {
  SessionConfig C;
  C.Threads = 2;
  C.ParallelCandidates = false; // Keeps the scored count deterministic.
  CompilerSession Session(C);
  auto Backend = std::make_shared<ParityBackend>();
  ConvLayer Target{"t", 32, 14, 14, 64, 3, 3, 1, 1, 1, false};
  ConvLayer Neighbor{"n", 32, 14, 14, 48, 3, 3, 1, 1, 1, false};
  // A near-isomorphic winner in the transfer index: a cold tune of the
  // target gets a seed from it.
  Session.compile({Workload::conv2d(Neighbor), Backend});

  std::promise<void> Gate;
  switch (Case) {
  case ParityCase::ReadyHit:
    Session.compile({Workload::conv2d(Target), Backend});
    break;
  case ParityCase::InFlightJoin:
    Backend->Gate = Gate.get_future().share();
    Backend->GateNext.store(true);
    Session.compileAsync({Workload::conv2d(Target), Backend});
    while (!Backend->Started.load())
      std::this_thread::yield();
    break;
  case ParityCase::Miss:
    break;
  case ParityCase::PeerServed: {
    KernelReport Peer;
    Peer.Seconds = 1e-3;
    Peer.Tensorized = true;
    Peer.BestCandidateIndex = 2;
    Peer.CandidatesTried = 7;
    Peer.IntrinsicName = "peer";
    Session.setColdMissFetcher(
        [Peer](const std::string &) { return std::optional(Peer); });
    break;
  }
  case ParityCase::Throwing:
    Backend->Throw = true;
    break;
  }

  CompileRequest Request(Workload::conv2d(Target), Backend);
  uint64_t Seeds0 = Session.sessionStats().TransferSeeds;
  uint64_t Scored0 = tunerCandidatesScored();
  CompilerSession::LatencySnapshots L0 = Session.latencySnapshots();
  uint64_t Hits0 = Session.cache().stats().Hits;

  ParityObservation Obs;
  auto Resolve = [&] {
    if (Async) {
      Session.compileAsyncThen(Request, [&](const KernelReport *Report,
                                            std::exception_ptr,
                                            bool Computed) {
        Obs.Threw = !Report;
        if (Report)
          Obs.Report = *Report;
        Obs.Computed = Computed;
      });
      return;
    }
    try {
      Obs.Report = Session.compile(Request, &Obs.Computed);
    } catch (const std::runtime_error &) {
      Obs.Threw = true;
    }
  };
  // A blocking join holds its caller until the gate opens, so the request
  // runs on its own thread and the gate opens once the join registered.
  std::thread Caller(Resolve);
  if (Case == ParityCase::InFlightJoin) {
    while (Session.cache().stats().Hits == Hits0)
      std::this_thread::yield();
    Gate.set_value();
  }
  Caller.join();
  Session.quiesce();

  CompilerSession::LatencySnapshots L1 = Session.latencySnapshots();
  Obs.Seeds = Session.sessionStats().TransferSeeds - Seeds0;
  Obs.Scored = tunerCandidatesScored() - Scored0;
  Obs.Cold = L1.Cold.Count - L0.Cold.Count;
  Obs.Warm = L1.Warm.Count - L0.Warm.Count;
  Obs.Join = L1.Join.Count - L0.Join.Count;
  return Obs;
}

TEST(CompileParity, BlockingAndAsyncResolveEveryCaseAlike) {
  for (ParityCase Case :
       {ParityCase::ReadyHit, ParityCase::InFlightJoin, ParityCase::Miss,
        ParityCase::PeerServed, ParityCase::Throwing}) {
    const char *CaseNames[] = {"ready-hit", "in-flight-join", "miss",
                               "peer-served", "throwing"};
    SCOPED_TRACE(CaseNames[static_cast<int>(Case)]);
    ParityObservation B = observeParity(Case, /*Async=*/false);
    ParityObservation A = observeParity(Case, /*Async=*/true);
    EXPECT_EQ(B.Threw, A.Threw);
    EXPECT_EQ(B.Report.Seconds, A.Report.Seconds);
    EXPECT_EQ(B.Report.Tensorized, A.Report.Tensorized);
    EXPECT_EQ(B.Report.BestCandidateIndex, A.Report.BestCandidateIndex);
    EXPECT_EQ(B.Report.CandidatesTried, A.Report.CandidatesTried);
    EXPECT_EQ(B.Report.IntrinsicName, A.Report.IntrinsicName);
    EXPECT_EQ(B.Computed, A.Computed);
    EXPECT_EQ(B.Seeds, A.Seeds);
    EXPECT_EQ(B.Scored, A.Scored);
    EXPECT_EQ(B.Cold, A.Cold);
    EXPECT_EQ(B.Warm, A.Warm);
    EXPECT_EQ(B.Join, A.Join);
    // One histogram sample per request; the join window also holds the
    // gated winner's cold sample.
    EXPECT_EQ(B.Cold + B.Warm + B.Join,
              Case == ParityCase::InFlightJoin ? 2u : 1u);
  }
}

TEST(CompileParity, CasesExerciseWhatTheyName) {
  ParityObservation Miss =
      observeParity(ParityCase::Miss, false);
  EXPECT_TRUE(Miss.Computed);
  EXPECT_EQ(Miss.Seeds, 1u) << "the neighbor should seed the cold tune";
  EXPECT_EQ(Miss.Cold, 1u);
  ParityObservation Hit =
      observeParity(ParityCase::ReadyHit, false);
  EXPECT_FALSE(Hit.Computed);
  EXPECT_EQ(Hit.Scored, 0u);
  EXPECT_EQ(Hit.Warm, 1u);
  ParityObservation Join =
      observeParity(ParityCase::InFlightJoin, false);
  EXPECT_FALSE(Join.Computed);
  EXPECT_EQ(Join.Join, 1u);
  ParityObservation Peer =
      observeParity(ParityCase::PeerServed, false);
  EXPECT_FALSE(Peer.Computed);
  EXPECT_EQ(Peer.Report.IntrinsicName, "peer");
  EXPECT_EQ(Peer.Scored, 0u);
  EXPECT_EQ(Peer.Cold, 1u);
  ParityObservation Fail =
      observeParity(ParityCase::Throwing, false);
  EXPECT_TRUE(Fail.Threw);
  EXPECT_EQ(Fail.Cold, 1u);
}

//===----------------------------------------------------------------------===//
// KernelCache: LRU eviction
//===----------------------------------------------------------------------===//

KernelReport reportOf(double Seconds) {
  KernelReport R;
  R.Seconds = Seconds;
  return R;
}

TEST(KernelCacheLru, EvictsLeastRecentlyUsedAtCapacity) {
  KernelCache Cache(2);
  Cache.insert("a", reportOf(1));
  Cache.insert("b", reportOf(2));
  Cache.insert("c", reportOf(3));
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_FALSE(Cache.contains("a"));
  EXPECT_TRUE(Cache.contains("b"));
  EXPECT_TRUE(Cache.contains("c"));
  EXPECT_EQ(Cache.stats().Evictions, 1u);
}

TEST(KernelCacheLru, LookupRefreshesRecency) {
  KernelCache Cache(2);
  Cache.insert("a", reportOf(1));
  Cache.insert("b", reportOf(2));
  ASSERT_TRUE(Cache.lookup("a").has_value()); // "a" is now the hot entry.
  Cache.insert("c", reportOf(3));
  EXPECT_TRUE(Cache.contains("a"));
  EXPECT_FALSE(Cache.contains("b"));
  EXPECT_TRUE(Cache.contains("c"));
}

TEST(KernelCacheLru, EntryCapKeepsTheHottest) {
  KernelCache Cache(3);
  for (int I = 0; I < 8; ++I) {
    Cache.insert("k" + std::to_string(I), reportOf(I));
    EXPECT_LE(Cache.size(), 3u);
  }
  EXPECT_EQ(Cache.size(), 3u);
  EXPECT_EQ(Cache.stats().Evictions, 5u);
  // The three hottest (most recently inserted) survive.
  EXPECT_TRUE(Cache.contains("k7"));
  EXPECT_TRUE(Cache.contains("k6"));
  EXPECT_TRUE(Cache.contains("k5"));
}

TEST(KernelCacheLru, SessionConfigCapIsApplied) {
  SessionConfig C = sequentialConfig();
  C.CacheCapacity = 1;
  CompilerSession Session(C);
  auto Backend = std::make_shared<ProbeBackend>("lru");
  ConvLayer A{"a", 8, 8, 8, 8, 1, 1, 1, 0, 0, false};
  ConvLayer B{"b", 8, 8, 8, 16, 1, 1, 1, 0, 0, false};
  Session.compile({Workload::conv2d(A), Backend});
  Session.compile({Workload::conv2d(B), Backend});
  EXPECT_EQ(Session.cache().size(), 1u);
  // Recompiling the evicted shape is a fresh compile, not a hit.
  Session.compile({Workload::conv2d(A), Backend});
  EXPECT_EQ(Backend->Compiles.load(), 3);
}

TEST(KernelCacheLru, ModelCompileIsCorrectWithCapSmallerThanModel) {
  // The per-layer reports come from the compile results themselves, so a
  // cap smaller than the model's distinct-shape count costs extra tuning
  // on the next run but never corrupts (or re-tunes during) this one.
  SessionConfig C = sequentialConfig();
  C.CacheCapacity = 2;
  CompilerSession Tiny(C);
  CompilerSession Ref(sequentialConfig());
  Model Resnet = makeResnet18();
  ModelCompileResult A = Tiny.compileModel(Resnet, "x86");
  ModelCompileResult B = Ref.compileModel(Resnet, "x86");
  ASSERT_EQ(A.Layers.size(), B.Layers.size());
  for (size_t I = 0; I < A.Layers.size(); ++I)
    EXPECT_EQ(A.Layers[I].Seconds, B.Layers[I].Seconds);
  EXPECT_LE(Tiny.cache().size(), 2u);
}

//===----------------------------------------------------------------------===//
// Byte-accounted cache sizing (surfaced by the compile server's stats)
//===----------------------------------------------------------------------===//

TEST(KernelCacheBytes, EmptyCacheReportsZero) {
  KernelCache Cache;
  EXPECT_EQ(Cache.bytesUsed(), 0u);
  EXPECT_TRUE(Cache.entrySizes().empty());
  EXPECT_EQ(Cache.stats().Entries, 0u);
  EXPECT_EQ(Cache.stats().BytesUsed, 0u);
}

TEST(KernelCacheBytes, PerEntrySizesSumToTotal) {
  KernelCache Cache;
  KernelReport R = reportOf(1);
  R.IntrinsicName = "vnni.vpdpbusd";
  Cache.insert("short-key", R);
  Cache.insert(std::string(200, 'k'), reportOf(2));

  std::vector<KernelCache::EntrySize> Sizes = Cache.entrySizes();
  ASSERT_EQ(Sizes.size(), 2u);
  size_t Sum = 0;
  for (const KernelCache::EntrySize &E : Sizes) {
    EXPECT_GT(E.Bytes, 0u);
    EXPECT_TRUE(E.Ready);
    Sum += E.Bytes;
  }
  EXPECT_EQ(Sum, Cache.bytesUsed());
  EXPECT_EQ(Cache.stats().BytesUsed, Sum);
  EXPECT_EQ(Cache.stats().Entries, 2u);

  // A longer key accounts for more bytes; the key is resident twice
  // (map + LRU node), so the delta is at least twice the length delta.
  EXPECT_EQ(Sizes.front().Key, std::string(200, 'k')); // MRU first.
  EXPECT_GE(Sizes.front().Bytes, Sizes.back().Bytes + 2 * (200 - 9) -
                                     R.IntrinsicName.size());
}

TEST(KernelCacheBytes, EvictionAndEraseShrinkTheAccounting) {
  KernelCache Cache(2);
  Cache.insert("a", reportOf(1));
  size_t OneEntry = Cache.bytesUsed();
  Cache.insert("b", reportOf(2));
  Cache.insert("c", reportOf(3)); // Evicts "a".
  EXPECT_EQ(Cache.stats().Entries, 2u);
  Cache.erase("b");
  Cache.erase("c");
  EXPECT_EQ(Cache.bytesUsed(), 0u);
  EXPECT_GT(OneEntry, 0u);
}

TEST(KernelCacheBytes, RealModelCompileAccountsItsKernels) {
  CompilerSession Session(sequentialConfig());
  Model Resnet = makeResnet18();
  Session.compileModel(Resnet, "x86");
  KernelCache::CacheStats S = Session.cache().stats();
  EXPECT_EQ(S.Entries, static_cast<size_t>(Resnet.distinctConvShapes()));
  // Canonical structural keys are long (they serialize the whole op);
  // every entry must account for at least its two key copies.
  size_t MinExpected = 0;
  for (const KernelCache::EntrySize &E : Session.cache().entrySizes())
    MinExpected += 2 * E.Key.size();
  EXPECT_GE(S.BytesUsed, MinExpected);
  EXPECT_GT(MinExpected, 0u);
}

//===----------------------------------------------------------------------===//
// Byte-capped LRU (SessionConfig::CacheCapacityBytes)
//===----------------------------------------------------------------------===//

TEST(KernelCacheByteCap, EvictsColdestFirstUntilUnderTheCap) {
  // Same-length keys and intrinsic-less reports: every entry accounts
  // the same bytes, measured once on an uncapped cache.
  size_t PerEntry;
  {
    KernelCache Probe;
    Probe.insert("aa", reportOf(1));
    PerEntry = Probe.bytesUsed();
  }
  ASSERT_GT(PerEntry, 0u);

  // Two entries' worth: the third insert pushes out exactly the coldest.
  KernelCache Cache(0, 2 * PerEntry);
  EXPECT_EQ(Cache.byteCapacity(), 2 * PerEntry);
  Cache.insert("aa", reportOf(1));
  Cache.insert("bb", reportOf(2));
  Cache.insert("cc", reportOf(3));
  EXPECT_FALSE(Cache.contains("aa"));
  EXPECT_TRUE(Cache.contains("bb"));
  EXPECT_TRUE(Cache.contains("cc"));
  EXPECT_EQ(Cache.stats().Evictions, 1u);
  EXPECT_LE(Cache.bytesUsed(), 2 * PerEntry);

  // Touch "bb" so "cc" becomes the cold end, then insert again: strict
  // LRU order means "cc" is evicted next, never the freshly warmed "bb".
  ASSERT_TRUE(Cache.lookup("bb").has_value());
  Cache.insert("dd", reportOf(4));
  EXPECT_TRUE(Cache.contains("bb"));
  EXPECT_FALSE(Cache.contains("cc"));
  EXPECT_TRUE(Cache.contains("dd"));
  EXPECT_EQ(Cache.stats().Evictions, 2u);
}

TEST(KernelCacheByteCap, InsertEnforcesTheCap) {
  KernelCache Cache(0, 1); // 1-byte cap: nothing ready survives an insert.
  Cache.insert("k1", reportOf(1));
  Cache.insert("k2", reportOf(2));
  // Every insert lands at the LRU front and is immediately over budget;
  // the cache never grows beyond the newest entry's transient residence.
  EXPECT_LE(Cache.size(), 1u);
  EXPECT_GE(Cache.stats().Evictions, 1u);
}

TEST(KernelCacheByteCap, InFlightEntriesAreNeverEvicted) {
  // A cap that holds the finished "inflight" entry alone: anything
  // inserted beside it puts the cache over budget.
  size_t Alone;
  {
    KernelCache Probe;
    Probe.insert("inflight", reportOf(9));
    Alone = Probe.bytesUsed();
  }
  KernelCache Cache(0, Alone);
  KernelCache::ComputeTicket Ticket;
  ASSERT_EQ(Cache.resolveThen("inflight", nullptr, nullptr, &Ticket),
            KernelCache::ResolveKind::MustCompute);
  Cache.insert("ready", reportOf(1));
  // The ready entry is evictable; the in-flight one must survive.
  EXPECT_TRUE(Cache.contains("inflight"));
  EXPECT_FALSE(Cache.contains("ready"));
  EXPECT_EQ(Cache.stats().Evictions, 1u);
  // Once the winner completes the entry fits the cap and stays.
  Cache.fulfill("inflight", Ticket, reportOf(9));
  ASSERT_TRUE(Cache.lookup("inflight").has_value());
  EXPECT_EQ(Cache.lookup("inflight")->Seconds, 9.0);
}

TEST(KernelCacheByteCap, SessionConfigByteCapIsApplied) {
  SessionConfig C = sequentialConfig();
  C.CacheCapacityBytes = 1; // Pathologically small: every entry evicts.
  CompilerSession Session(C);
  EXPECT_EQ(Session.cache().byteCapacity(), 1u);
  auto Backend = std::make_shared<ProbeBackend>("bytecap");
  ConvLayer A{"a", 8, 8, 8, 8, 1, 1, 1, 0, 0, false};
  Session.compile({Workload::conv2d(A), Backend});
  Session.compile({Workload::conv2d(A), Backend});
  // The first result was evicted on completion, so the repeat is a fresh
  // compile — the cap is enforced on insert, not just on demand.
  EXPECT_EQ(Backend->Compiles.load(), 2);
  EXPECT_EQ(Session.cache().size(), 0u);
}

//===----------------------------------------------------------------------===//
// Cache persistence
//===----------------------------------------------------------------------===//

std::string tempCachePath(const std::string &Tag) {
  return "unit_test_cache_" + Tag + "_" + std::to_string(getpid()) + ".kc";
}

TEST(CachePersistence, StreamRoundTripIsExact) {
  KernelCache A;
  KernelReport R;
  R.Seconds = 1.0 / 3.0; // Needs exact (hex-float) serialization.
  R.Tensorized = true;
  R.BestCandidateIndex = 7;
  R.CandidatesTried = 42;
  R.IntrinsicName = "vnni.vpdpbusd";
  A.insert("some|key with spaces", R);
  A.insert("other|key", reportOf(2.5e-6));

  std::stringstream Stream;
  EXPECT_EQ(A.save(Stream, "fp"), 2u);

  KernelCache B;
  KernelCache::LoadResult Load = B.load(Stream, "fp");
  EXPECT_EQ(Load.Status, KernelCache::LoadStatus::Loaded);
  EXPECT_EQ(Load.EntriesLoaded, 2u);
  std::optional<KernelReport> Back = B.lookup("some|key with spaces");
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(0, std::memcmp(&Back->Seconds, &R.Seconds, sizeof(double)));
  EXPECT_EQ(Back->Tensorized, R.Tensorized);
  EXPECT_EQ(Back->BestCandidateIndex, R.BestCandidateIndex);
  EXPECT_EQ(Back->CandidatesTried, R.CandidatesTried);
  EXPECT_EQ(Back->IntrinsicName, R.IntrinsicName);
}

TEST(CachePersistence, FingerprintMismatchRejectedCleanly) {
  KernelCache A;
  A.insert("k", reportOf(1));
  std::stringstream Stream;
  A.save(Stream, "machine-A");
  KernelCache B;
  KernelCache::LoadResult Load = B.load(Stream, "machine-B");
  EXPECT_EQ(Load.Status, KernelCache::LoadStatus::FingerprintMismatch);
  EXPECT_EQ(Load.EntriesLoaded, 0u);
  EXPECT_EQ(B.size(), 0u);
}

TEST(CachePersistence, CorruptedFileRejectedCleanly) {
  {
    KernelCache B;
    std::stringstream Garbage("not a cache file at all\njunk\n");
    EXPECT_EQ(B.load(Garbage, "fp").Status,
              KernelCache::LoadStatus::BadFormat);
    EXPECT_EQ(B.size(), 0u);
  }
  {
    // Truncated mid-entry: all-or-nothing, zero entries leak in.
    KernelCache A;
    A.insert("key-one", reportOf(1));
    A.insert("key-two", reportOf(2));
    std::stringstream Stream;
    A.save(Stream, "fp");
    std::string Text = Stream.str();
    std::istringstream Truncated(Text.substr(0, Text.size() / 2));
    KernelCache B;
    EXPECT_EQ(B.load(Truncated, "fp").Status,
              KernelCache::LoadStatus::BadFormat);
    EXPECT_EQ(B.size(), 0u);
  }
}

TEST(CachePersistence, EveryTruncationAndBitFlipLoadsCleanly) {
  // Mutation sweep over a saved two-entry file: a damaged load either
  // merges at most what was saved or leaves the cache empty.
  KernelReport R = reportOf(1.0 / 3.0);
  R.Tensorized = true;
  R.BestCandidateIndex = 7;
  R.CandidatesTried = 42;
  R.IntrinsicName = "vnni.vpdpbusd";
  KernelCache A;
  A.insert("x86|conv2d|key-one", R);
  A.insert("x86|conv2d|key-two", reportOf(2));
  std::stringstream Stream;
  ASSERT_EQ(A.save(Stream, "fp-mutation"), 2u);
  const std::string Bytes = Stream.str();

  auto Load = [](const std::string &Mutant, const std::string &What) {
    KernelCache B;
    std::istringstream In(Mutant);
    KernelCache::LoadResult Result = B.load(In, "fp-mutation");
    EXPECT_EQ(Result.EntriesLoaded, B.size()) << What;
    if (Result.Status == KernelCache::LoadStatus::Loaded)
      EXPECT_LE(B.size(), 2u) << What;
    else
      EXPECT_EQ(B.size(), 0u) << What;
  };
  for (size_t Len = 0; Len < Bytes.size(); ++Len)
    Load(Bytes.substr(0, Len), "truncated to " + std::to_string(Len));
  for (size_t I = 0; I < Bytes.size(); ++I)
    for (int Bit = 0; Bit < 8; ++Bit) {
      std::string Mutant = Bytes;
      Mutant[I] = static_cast<char>(Mutant[I] ^ (1 << Bit));
      Load(Mutant, "bit " + std::to_string(Bit) + " of byte " +
                       std::to_string(I) + " flipped");
    }
}

TEST(CachePersistence, MissingFileReported) {
  KernelCache Cache;
  EXPECT_EQ(Cache.loadFile("does/not/exist.kc", "fp").Status,
            KernelCache::LoadStatus::FileNotFound);
}

TEST(CachePersistence, PersistenceWritesSurvivorsOnly) {
  KernelCache Cache(2); // LRU cap 2: the first insert is evicted.
  Cache.insert("a", reportOf(1));
  Cache.insert("b", reportOf(2));
  Cache.insert("c", reportOf(3));
  std::stringstream Stream;
  EXPECT_EQ(Cache.save(Stream, "fp"), 2u);
}

TEST(CachePersistence, WarmFromDiskCompilesWithZeroTunerInvocations) {
  std::string Path = tempCachePath("warm");
  Model Resnet = makeResnet18();

  CompilerSession Cold(sequentialConfig());
  ModelCompileResult ColdResult = Cold.compileModel(Resnet, "x86");
  std::optional<size_t> Saved = Cold.saveCache(Path);
  ASSERT_TRUE(Saved.has_value());
  EXPECT_EQ(*Saved, Cold.cache().size());

  // A fresh session (standing in for a second process) restores the file
  // and compiles the whole model without invoking the tuner once.
  CompilerSession Warm(sequentialConfig());
  KernelCache::LoadResult Load = Warm.loadCache(Path);
  ASSERT_EQ(Load.Status, KernelCache::LoadStatus::Loaded);
  EXPECT_EQ(Load.EntriesLoaded, *Saved);

  uint64_t TunesBefore = tunerInvocations();
  ModelCompileResult WarmResult = Warm.compileModel(Resnet, "x86");
  EXPECT_EQ(tunerInvocations(), TunesBefore);
  EXPECT_EQ(Warm.cache().stats().Misses, 0u);
  EXPECT_EQ(WarmResult.CacheHitLayers, Resnet.Convs.size());

  ASSERT_EQ(ColdResult.Layers.size(), WarmResult.Layers.size());
  for (size_t I = 0; I < ColdResult.Layers.size(); ++I) {
    EXPECT_EQ(0, std::memcmp(&ColdResult.Layers[I].Seconds,
                             &WarmResult.Layers[I].Seconds, sizeof(double)));
    EXPECT_EQ(ColdResult.Layers[I].IntrinsicName,
              WarmResult.Layers[I].IntrinsicName);
  }
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// TargetRegistry
//===----------------------------------------------------------------------===//

TEST(TargetRegistry, DefaultsCoverTheShippedSpecs) {
  TargetRegistry &R = TargetRegistry::instance();
  // The paper's three machines plus the two spec-only backends.
  for (const char *Id : {"x86", "arm", "nvgpu", "x86-amx", "arm-sve"})
    EXPECT_EQ(R.get(Id)->id(), Id);
  EXPECT_GE(R.all().size(), 5u);
  EXPECT_EQ(R.lookup("no-such-target"), nullptr);
  // Widest-first intrinsic list, same as the pipeline's search order.
  std::vector<TensorIntrinsicRef> Intrs = R.get("x86")->intrinsics();
  ASSERT_FALSE(Intrs.empty());
  EXPECT_EQ(Intrs.front()->name(), "vnni.vpdpbusd");
}

TEST(TargetRegistry, SpecOnlyBackendsCompileQuantizedConvs) {
  CompilerSession Session(sequentialConfig());
  ConvLayer L{"c", 64, 28, 28, 128, 3, 3, 1, 1, 1, false};
  KernelReport Amx = Session.compile({Workload::conv2d(L), "x86-amx"});
  EXPECT_TRUE(Amx.Tensorized);
  EXPECT_EQ(Amx.IntrinsicName, "amx.tdpbusd");
  KernelReport Sve = Session.compile({Workload::conv2d(L), "arm-sve"});
  EXPECT_TRUE(Sve.Tensorized);
  EXPECT_EQ(Sve.IntrinsicName, "sve.sdot.256");
  // Distinct spec hashes keep the three x86-family kernels apart.
  EXPECT_EQ(Session.cache().size(), 2u);
  EXPECT_NE(TargetRegistry::instance().get("x86-amx")->specHash(),
            TargetRegistry::instance().get("x86")->specHash());
}

} // namespace
