//===- tests/test_extensibility.cpp - New-instruction integration ---------===//
//
// Paper §VI.C's claim as a test: a brand-new tensorized instruction is
// integrated by *describing its semantics in the tensor DSL* only — the
// Inspector, Rewriter, interpreter emulation, and cost model all pick it
// up with zero new code.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/Pipeline.h"
#include "isa/Intrinsics.h"
#include "perf/CostModel.h"
#include "runtime/CompilerSession.h"
#include "server/CompileClient.h"
#include "server/CompileServer.h"
#include "target/BuiltinSpecs.h"
#include "target/TargetRegistry.h"
#include "tuner/Tuner.h"

#include <unistd.h>

#include <gtest/gtest.h>

using namespace unit;
using namespace unit::testutil;

namespace {

/// A hypothetical 8-lane x 8-wide i16 dot product ("vdot16").
TensorIntrinsicRef makeVdot16() {
  TensorRef A = makeTensor("vdot16.a", {64}, DataType::i16());
  TensorRef B = makeTensor("vdot16.b", {64}, DataType::i16());
  TensorRef C = makeTensor("vdot16.c", {8}, DataType::i32());
  TensorRef D = makeTensor("vdot16.d", {8}, DataType::i32());
  IterVar I = makeAxis("i", 8);
  IterVar J = makeReduceAxis("j", 8);
  ExprRef Lane = makeVar(I) * makeIntImm(8) + makeVar(J);
  ExprRef Prod = makeCast(DataType::i32(), makeLoad(A, {Lane})) *
                 makeCast(DataType::i32(), makeLoad(B, {Lane}));
  ExprRef Body = makeReduce(ReduceKind::Sum, Prod, {J},
                            makeLoad(C, {makeVar(I)}));
  IntrinsicCost Cost{/*LatencyCycles=*/6.0, /*IssuePerCycle=*/1.0,
                     /*MacsPerInstr=*/64.0};
  return std::make_shared<TensorIntrinsic>(
      "test.vdot16", "llvm.test.vdot16", "x86",
      ComputeOp::create("test.vdot16", D, {I}, Body), Cost);
}

/// Registered once for the whole test binary.
TensorIntrinsicRef vdot16() {
  static TensorIntrinsicRef I = [] {
    TensorIntrinsicRef New = makeVdot16();
    IntrinsicRegistry::instance().add(New);
    return New;
  }();
  return I;
}

OpFixture makeI16Matmul(int64_t N, int64_t M, int64_t K) {
  TensorRef A = makeTensor("a", {N, K}, DataType::i16());
  TensorRef B = makeTensor("b", {M, K}, DataType::i16());
  TensorRef Out = makeTensor("c", {N, M}, DataType::i32());
  IterVar I = makeAxis("i", N), J = makeAxis("j", M);
  IterVar Kk = makeReduceAxis("k", K);
  ExprRef Prod =
      makeCast(DataType::i32(), makeLoad(A, {makeVar(I), makeVar(Kk)})) *
      makeCast(DataType::i32(), makeLoad(B, {makeVar(J), makeVar(Kk)}));
  ComputeOpRef Op = ComputeOp::create(
      "matmul_i16", Out, {I, J}, makeReduce(ReduceKind::Sum, Prod, {Kk}));
  return {Op, {A, B}, Out};
}

TEST(Extensibility, RegistryAcceptsNewInstruction) {
  ASSERT_NE(vdot16(), nullptr);
  EXPECT_EQ(IntrinsicRegistry::instance().lookup("test.vdot16"), vdot16());
  EXPECT_EQ(vdot16()->outputLanes(), 8);
  EXPECT_EQ(vdot16()->reduceWidth(), 8);
}

TEST(Extensibility, InspectorMatchesWithoutChanges) {
  OpFixture F = makeI16Matmul(16, 16, 64);
  std::optional<MatchResult> M = inspect(F.Op, vdot16());
  ASSERT_TRUE(M.has_value());
  EXPECT_EQ(M->Mapping.opAxisFor(
                 vdot16()->semantics()->axes()[0].get())->name(),
            "j");
}

TEST(Extensibility, FullPipelineBitExact) {
  OpFixture F = makeI16Matmul(8, 16, 64);
  std::optional<CompiledKernel> K = compileWithIntrinsic(F.Op, vdot16());
  ASSERT_TRUE(K.has_value());
  EXPECT_EQ(runToInts(F, K->TIR, 61), referenceInts(F, 61));
}

TEST(Extensibility, VpdpwssdAlsoMatchesI16ButNotVdot16Shapes) {
  // Both i16 instructions coexist; inspectTarget returns them in
  // registration order (built-ins first).
  OpFixture F = makeI16Matmul(16, 16, 64);
  std::vector<MatchResult> Ms = inspectTarget(F.Op, "x86");
  ASSERT_GE(Ms.size(), 2u);
  EXPECT_EQ(Ms[0].Intrinsic->name(), "avx512.vpdpwssd");
  EXPECT_EQ(Ms.back().Intrinsic->name(), "test.vdot16");
}

TEST(Extensibility, TunerWorksOnNewInstruction) {
  OpFixture F = makeI16Matmul(64, 64, 128);
  std::optional<MatchResult> M = inspect(F.Op, vdot16());
  ASSERT_TRUE(M);
  CpuMachine Machine = CpuMachine::cascadeLake();
  TunedKernel Best = tuneCpu(F.Op, *M, Machine);
  EXPECT_GT(Best.LatencySeconds, 0.0);
  EXPECT_LT(Best.LatencySeconds, 1.0);
  // The new instruction's cost numbers flow through the model.
  EXPECT_DOUBLE_EQ(Best.Stats.MacsPerCall, 64.0);
}

TEST(Extensibility, CostModelSeesNewLatency) {
  OpFixture F = makeI16Matmul(64, 64, 128);
  std::optional<MatchResult> M = inspect(F.Op, vdot16());
  ASSERT_TRUE(M);
  TensorizePlan NoUnroll = buildCpuPlan(F.Op, *M, CpuTuningPair{3000, 1});
  TensorizePlan Unrolled = buildCpuPlan(F.Op, *M, CpuTuningPair{3000, 8});
  CpuMachine Machine = CpuMachine::cascadeLake();
  // Latency 6 with issue 1/cycle: unrolling must pay.
  EXPECT_GT(cpuLatencySeconds(analyzeTensorized(NoUnroll), Machine),
            cpuLatencySeconds(analyzeTensorized(Unrolled), Machine));
}

//===----------------------------------------------------------------------===//
// TargetSpec: a whole backend from one registered description
//===----------------------------------------------------------------------===//

/// A made-up accelerator ("test-npu"): 8-lane x 8-wide u8 x i8 dot unit
/// on a small 8-core machine. Everything the backend is lives in this one
/// function — the acceptance test for the declarative subsystem is that
/// registering it (and nothing else) compiles quantized convs in-process
/// *and* over the compile-server socket.
TargetSpec makeTestNpuSpec(double LatencyCycles = 4.0) {
  TargetSpec S;
  S.Id = "test-npu";
  S.Description = "synthetic 8x8 u8 dot-product NPU (test only)";
  S.Engine = TargetSpec::EngineKind::CpuDot;

  CpuMachine M;
  M.Name = "test-npu-host";
  M.FreqGHz = 1.5;
  M.Cores = 8;
  M.LoadPortsPerCycle = 2.0;
  M.ForkJoinCycles = 8000.0;
  M.PerChunkSchedCycles = 100.0;
  M.ICacheBodyBudgetBytes = 4096.0;
  M.ResidueBranchPenalty = 0.35;
  M.DramBytesPerCycle = 32.0;
  M.L2BytesPerCore = 512.0 * 1024.0;
  M.SimdVectorBytes = 32.0;
  M.SimdPipes = 1.0;
  M.WideningFactorNoDot = 4.0;
  S.Cpu = M;

  S.Scheme = {DataType::u8(), DataType::i8(), DataType::i32(), 8, 8};
  IntrinsicCost Cost{LatencyCycles, /*IssuePerCycle=*/1.0,
                     /*MacsPerInstr=*/64.0};
  S.Intrinsics = {makeDotProductIntrinsic("npu.dot8x8", "llvm.test.npu.dot",
                                          S.Id, /*Lanes=*/8, /*Reduce=*/8,
                                          DataType::u8(), DataType::i8(),
                                          Cost)};
  return S;
}

TEST(TargetSpec, RegisterSpecCompilesAQuantizedConvInProcess) {
  // The whole integration: one registerSpec call, zero edits to the
  // quantizer, the machine model, the session, or the protocol.
  TargetRegistry::instance().registerSpec(makeTestNpuSpec());

  CompilerSession Session;
  ConvLayer L{"c", 64, 28, 28, 128, 3, 3, 1, 1, 1, false};
  KernelReport R = Session.compile({Workload::conv2d(L), "test-npu"});
  EXPECT_TRUE(R.Tensorized);
  EXPECT_EQ(R.IntrinsicName, "npu.dot8x8");
  EXPECT_GT(R.Seconds, 0.0);

  // The conv3d hook comes along for free on the CPU pipeline.
  Conv3dLayer L3;
  L3.InC = 64;
  L3.InD = L3.InH = L3.InW = 14;
  L3.OutC = 64;
  L3.K = 3;
  L3.Pad = 1;
  EXPECT_TRUE(TargetRegistry::instance().get("test-npu")->supportsConv3d());
  KernelReport R3 = Session.compile({Workload::conv3d(L3), "test-npu"});
  EXPECT_TRUE(R3.Tensorized);
}

TEST(TargetSpec, CacheKeysAndFingerprintsAreDistinctPerSpecHash) {
  TargetSpec V1 = makeTestNpuSpec(/*LatencyCycles=*/4.0);
  TargetSpec V2 = makeTestNpuSpec(/*LatencyCycles=*/8.0); // Revised cost.
  EXPECT_NE(V1.hash(), V2.hash());
  EXPECT_EQ(V1.hash(), makeTestNpuSpec().hash()) << "hash is deterministic";

  ConvLayer L{"c", 64, 28, 28, 128, 3, 3, 1, 1, 1, false};
  TargetBackendRef B1 = TargetRegistry::instance().registerSpec(V1);
  std::string Key1 = B1->convKey(L);
  std::string Fp1 = CompilerSession::persistenceFingerprint();

  // Rolling out the revision replaces the backend; its cache keys and
  // the persisted-cache fingerprint both move with the spec hash, so a
  // kernel tuned under v1 can never be served (from memory or disk)
  // under v2.
  TargetBackendRef B2 = TargetRegistry::instance().registerSpec(V2);
  std::string Key2 = B2->convKey(L);
  std::string Fp2 = CompilerSession::persistenceFingerprint();
  EXPECT_NE(Key1, Key2);
  EXPECT_NE(Fp1, Fp2);
  EXPECT_NE(B1->specHash(), B2->specHash());

  // Both keys carry their spec's salt prefix.
  EXPECT_EQ(Key1.rfind("test-npu|" + V1.hash(), 0), 0u);
  EXPECT_EQ(Key2.rfind("test-npu|" + V2.hash(), 0), 0u);

  // Restore v1 so test order does not matter.
  TargetRegistry::instance().registerSpec(makeTestNpuSpec());
}

TEST(TargetSpec, RegisteredSpecServesOverTheCompileServerSocket) {
  TargetRegistry::instance().registerSpec(makeTestNpuSpec());

  ServerConfig Config;
  Config.SocketPath =
      "/tmp/unit_ext_" + std::to_string(::getpid()) + ".sock";
  Config.PersistIntervalSeconds = 0;
  CompileServer Server(Config);
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;

  CompileClient Client;
  ASSERT_TRUE(Client.connect(Config.SocketPath, &Err)) << Err;
  ASSERT_TRUE(Client.hello("ext-test", 0, &Err).has_value()) << Err;

  // The runtime-registered backend is advertised...
  std::optional<std::vector<CompileClient::TargetInfo>> Targets =
      Client.listTargets(&Err);
  ASSERT_TRUE(Targets.has_value()) << Err;
  bool Advertised = false;
  for (const CompileClient::TargetInfo &T : *Targets)
    if (T.Id == "test-npu") {
      Advertised = true;
      EXPECT_TRUE(T.SupportsConv3d);
      EXPECT_EQ(T.SpecHash, makeTestNpuSpec().hash());
      ASSERT_FALSE(T.Intrinsics.empty());
      EXPECT_EQ(T.Intrinsics.front(), "npu.dot8x8");
    }
  EXPECT_TRUE(Advertised);

  // ...and compiles a quantized conv over the wire, bit-equal to the
  // in-process result (same registry backend, same deterministic stack).
  ConvLayer L{"c", 64, 28, 28, 128, 3, 3, 1, 1, 1, false};
  std::optional<CompileClient::CompileResult> Remote =
      Client.compileConv("test-npu", L, {}, &Err);
  ASSERT_TRUE(Remote.has_value()) << Err;
  EXPECT_TRUE(Remote->Report.Tensorized);
  EXPECT_EQ(Remote->Report.IntrinsicName, "npu.dot8x8");

  CompilerSession Local;
  KernelReport Expected = Local.compile({Workload::conv2d(L), "test-npu"});
  EXPECT_EQ(Remote->Report.Seconds, Expected.Seconds);
  EXPECT_EQ(Remote->Report.BestCandidateIndex, Expected.BestCandidateIndex);

  Client.close();
  Server.stop();
  // stop() keeps the lock file on purpose; a test owns its cleanup.
  ::unlink((Config.SocketPath + ".lock").c_str());
}

} // namespace
