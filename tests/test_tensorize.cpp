//===- tests/test_tensorize.cpp - End-to-end tensorization correctness ----===//
//
// The crown-jewel tests: programs rewritten to use tensorized instructions
// must produce bit-identical results to the untransformed references,
// across instructions, operations, shapes, and schedules.
//
//===----------------------------------------------------------------------===//

#include "SpecConformance.h"
#include "TestUtil.h"
#include "core/Pipeline.h"
#include "tir/TIRPrinter.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace unit;
using namespace unit::testutil;

namespace {

TensorIntrinsicRef byName(const std::string &Name) {
  TensorIntrinsicRef I = IntrinsicRegistry::instance().lookup(Name);
  EXPECT_NE(I, nullptr);
  return I;
}

TEST(Tensorize, ConvVNNIBitExact) {
  OpFixture F = makeConv2D(8, 8, 8, 16, 3, 3);
  std::optional<CompiledKernel> K =
      compileWithIntrinsic(F.Op, byName("vnni.vpdpbusd"));
  ASSERT_TRUE(K.has_value());
  EXPECT_EQ(runToInts(F, K->TIR, 21), referenceInts(F, 21));
}

TEST(Tensorize, ConvVNNIGeneratedIRContainsCall) {
  OpFixture F = makeConv2D(8, 8, 8, 16, 3, 3);
  std::optional<CompiledKernel> K =
      compileWithIntrinsic(F.Op, byName("vnni.vpdpbusd"));
  ASSERT_TRUE(K.has_value());
  std::string Text = stmtToString(K->TIR);
  EXPECT_NE(Text.find("vnni.vpdpbusd("), std::string::npos) << Text;
  // The tensorized loops must be gone: no k.i or rc.i loops remain.
  EXPECT_EQ(Text.find("for (k.i"), std::string::npos) << Text;
  EXPECT_EQ(Text.find("for (rc.i"), std::string::npos) << Text;
}

TEST(Tensorize, StridedConvVNNIBitExact) {
  OpFixture F = makeConv2D(9, 9, 8, 16, 3, 3, /*Stride=*/2);
  std::optional<CompiledKernel> K =
      compileWithIntrinsic(F.Op, byName("vnni.vpdpbusd"));
  ASSERT_TRUE(K.has_value());
  EXPECT_EQ(runToInts(F, K->TIR, 22), referenceInts(F, 22));
}

TEST(Tensorize, MatmulVNNIBitExact) {
  OpFixture F = makeMatmulU8I8(8, 16, 32);
  std::optional<CompiledKernel> K =
      compileWithIntrinsic(F.Op, byName("vnni.vpdpbusd"));
  ASSERT_TRUE(K.has_value());
  EXPECT_EQ(runToInts(F, K->TIR, 23), referenceInts(F, 23));
}

TEST(Tensorize, Conv3DVNNIBitExact) {
  OpFixture F = makeConv3D(5, 5, 5, 8, 16, 2);
  std::optional<CompiledKernel> K =
      compileWithIntrinsic(F.Op, byName("vnni.vpdpbusd"));
  ASSERT_TRUE(K.has_value());
  EXPECT_EQ(runToInts(F, K->TIR, 24), referenceInts(F, 24));
}

TEST(Tensorize, ConvSdotBitExact) {
  OpFixture F =
      makeConv2D(8, 8, 8, 8, 3, 3, 1, DataType::i8(), DataType::i8());
  std::optional<CompiledKernel> K =
      compileWithIntrinsic(F.Op, byName("arm.sdot"));
  ASSERT_TRUE(K.has_value());
  EXPECT_EQ(runToInts(F, K->TIR, 25), referenceInts(F, 25));
}

TEST(Tensorize, ConvUdotBitExact) {
  OpFixture F =
      makeConv2D(8, 8, 8, 8, 3, 3, 1, DataType::u8(), DataType::u8());
  std::optional<CompiledKernel> K =
      compileWithIntrinsic(F.Op, byName("arm.udot"));
  ASSERT_TRUE(K.has_value());
  EXPECT_EQ(runToInts(F, K->TIR, 26), referenceInts(F, 26));
}

TEST(Tensorize, GemmWMMABitExact) {
  OpFixture F = makeGemmF16(16, 32, 32);
  std::optional<CompiledKernel> K =
      compileWithIntrinsic(F.Op, byName("wmma.m16n16k16.f16"));
  ASSERT_TRUE(K.has_value());
  std::vector<double> Got = runToFloats(F, K->TIR, 27);
  std::vector<double> Want = referenceFloats(F, 27);
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Got.size(); ++I)
    EXPECT_FLOAT_EQ(static_cast<float>(Got[I]), static_cast<float>(Want[I]))
        << "element " << I;
}

TEST(Tensorize, GemmWMMAS8BitExact) {
  // int8 matmul in the (k,j)-indexed layout wmma.s8 expects.
  TensorRef A = makeTensor("a", {16, 32}, DataType::i8());
  TensorRef B = makeTensor("b", {32, 16}, DataType::i8());
  TensorRef Out = makeTensor("c", {16, 16}, DataType::i32());
  IterVar I = makeAxis("i", 16), J = makeAxis("j", 16);
  IterVar Kk = makeReduceAxis("k", 32);
  ExprRef Prod =
      makeCast(DataType::i32(), makeLoad(A, {makeVar(I), makeVar(Kk)})) *
      makeCast(DataType::i32(), makeLoad(B, {makeVar(Kk), makeVar(J)}));
  ComputeOpRef Op = ComputeOp::create(
      "mm_s8", Out, {I, J}, makeReduce(ReduceKind::Sum, Prod, {Kk}));
  OpFixture F{Op, {A, B}, Out};
  std::optional<CompiledKernel> K =
      compileWithIntrinsic(F.Op, byName("wmma.m16n16k16.s8"));
  ASSERT_TRUE(K.has_value());
  EXPECT_EQ(runToInts(F, K->TIR, 28), referenceInts(F, 28));
}

TEST(Tensorize, TunedScheduleStaysBitExact) {
  // Mimic the CPU tuning of paper Fig. 7: fuse+parallel outer loops,
  // reorder a data-parallel loop under the reduction and unroll it.
  OpFixture F = makeConv2D(8, 8, 8, 32, 3, 3);
  std::vector<int64_t> Ref = referenceInts(F, 29);
  auto Tune = [](TensorizePlan &Plan) {
    Schedule &S = *Plan.Sched;
    // Outer data-parallel loops: x, y, k.o. Fuse x and y, parallelize.
    IterVar Fused =
        S.fuse(Plan.OuterDataParallel[0], Plan.OuterDataParallel[1]);
    S.parallel(Fused);
    // Sink k.o below the reduce loops and unroll it.
    std::vector<IterVar> Order;
    Order.push_back(Plan.OuterReduce[0]);
    Order.push_back(Plan.OuterReduce[1]);
    Order.push_back(Plan.OuterReduce[2]);
    Order.push_back(Plan.OuterDataParallel[2]); // k.o innermost-but-tensor
    S.reorder(Order);
    S.unroll(Plan.OuterDataParallel[2]);
  };
  std::optional<CompiledKernel> K =
      compileWithIntrinsic(F.Op, byName("vnni.vpdpbusd"), Tune);
  ASSERT_TRUE(K.has_value());
  EXPECT_EQ(runToInts(F, K->TIR, 29), Ref);
}

TEST(Tensorize, TunedImperfectOuterSplitStaysBitExact) {
  // Tuner splits an outer loop with a non-dividing factor: the residue
  // guard must wrap the tensorized store (workloads #1/#4 of Fig. 10).
  OpFixture F = makeConv2D(7, 7, 8, 16, 3, 3); // x=y=5 outer
  std::vector<int64_t> Ref = referenceInts(F, 30);
  auto Tune = [](TensorizePlan &Plan) {
    Schedule &S = *Plan.Sched;
    S.split(Plan.OuterDataParallel[0], 2); // 5 % 2 != 0 -> guard
  };
  std::optional<CompiledKernel> K =
      compileWithIntrinsic(F.Op, byName("vnni.vpdpbusd"), Tune);
  ASSERT_TRUE(K.has_value());
  std::string Text = stmtToString(K->TIR);
  EXPECT_NE(Text.find("likely"), std::string::npos);
  EXPECT_EQ(runToInts(F, K->TIR, 30), Ref);
}

TEST(Tensorize, GpuStyleOuterProductScheduleStaysBitExact) {
  // The p x p outer-product accumulation of paper Fig. 6 on a wmma GEMM.
  OpFixture F = makeGemmF16(64, 64, 32);
  std::vector<double> Ref = referenceFloats(F, 31);
  auto Tune = [](TensorizePlan &Plan) {
    Schedule &S = *Plan.Sched;
    // Outer loops: i.o (4), j.o (4), k.o (2). Split i.o/j.o by p=2 and
    // bind the outermost to blocks, keeping p x p accumulators unrolled.
    auto [Io, Ii] = S.split(Plan.OuterDataParallel[0], 2);
    auto [Jo, Ji] = S.split(Plan.OuterDataParallel[1], 2);
    S.reorder({Io, Jo, Plan.OuterReduce[0], Ii, Ji});
    S.bind(Io, ForKind::GpuBlockX);
    S.bind(Jo, ForKind::GpuBlockY);
    S.unroll(Ii);
    S.unroll(Ji);
  };
  std::optional<CompiledKernel> K =
      compileWithIntrinsic(F.Op, byName("wmma.m16n16k16.f16"), Tune);
  ASSERT_TRUE(K.has_value());
  std::vector<double> Got = runToFloats(F, K->TIR, 31);
  ASSERT_EQ(Got.size(), Ref.size());
  for (size_t I = 0; I < Got.size(); ++I)
    EXPECT_EQ(Got[I], Ref[I]) << "element " << I;
}

TEST(Tensorize, CompileForTargetPicksVNNIOnX86) {
  OpFixture F = makeConv2D(8, 8, 8, 16, 3, 3);
  CompiledKernel K = compileForTarget(F.Op, "x86");
  ASSERT_TRUE(K.Plan.has_value());
  EXPECT_EQ(K.Plan->Match.Intrinsic->name(), "vnni.vpdpbusd");
}

TEST(Tensorize, CompileForTargetFallsBackForDepthwise) {
  TensorRef A = makeTensor("a", {8, 8, 16}, DataType::u8());
  TensorRef B = makeTensor("b", {3, 3, 16}, DataType::i8());
  TensorRef Out = makeTensor("c", {6, 6, 16}, DataType::i32());
  IterVar X = makeAxis("x", 6), Y = makeAxis("y", 6), C = makeAxis("ch", 16);
  IterVar R = makeReduceAxis("r", 3), S = makeReduceAxis("s", 3);
  ExprRef Prod =
      makeCast(DataType::i32(),
               makeLoad(A, {makeVar(X) + makeVar(R), makeVar(Y) + makeVar(S),
                            makeVar(C)})) *
      makeCast(DataType::i32(),
               makeLoad(B, {makeVar(R), makeVar(S), makeVar(C)}));
  ComputeOpRef Op = ComputeOp::create(
      "depthwise", Out, {X, Y, C}, makeReduce(ReduceKind::Sum, Prod, {R, S}));
  CompiledKernel K = compileForTarget(Op, "x86");
  EXPECT_FALSE(K.Plan.has_value());
  OpFixture F{Op, {A, B}, Out};
  EXPECT_EQ(runToInts(F, K.TIR, 32), referenceInts(F, 32));
}

TEST(Tensorize, VpdpwssdI16PathBitExact) {
  // i16 x i16 conv maps to avx512.vpdpwssd (2-wide reduce).
  OpFixture F =
      makeConv2D(6, 6, 8, 16, 3, 3, 1, DataType::i16(), DataType::i16());
  std::optional<CompiledKernel> K =
      compileWithIntrinsic(F.Op, byName("avx512.vpdpwssd"));
  ASSERT_TRUE(K.has_value());
  EXPECT_EQ(runToInts(F, K->TIR, 33), referenceInts(F, 33));
}

//===--------------------------------------------------------------------===//
// Property sweep: random conv shapes stay bit-exact under tensorization.
//===--------------------------------------------------------------------===//

struct ConvShape {
  int64_t H, W, C, K, R, Stride;
};

class TensorizeSweep : public ::testing::TestWithParam<ConvShape> {};

TEST_P(TensorizeSweep, ConvVNNIBitExact) {
  ConvShape P = GetParam();
  OpFixture F = makeConv2D(P.H, P.W, P.C, P.K, P.R, P.R, P.Stride);
  std::optional<CompiledKernel> K =
      compileWithIntrinsic(F.Op, byName("vnni.vpdpbusd"));
  ASSERT_TRUE(K.has_value());
  uint64_t Seed = static_cast<uint64_t>(P.H * 131 + P.C * 17 + P.K);
  EXPECT_EQ(runToInts(F, K->TIR, Seed), referenceInts(F, Seed));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TensorizeSweep,
    ::testing::Values(ConvShape{6, 6, 4, 16, 1, 1},  // 1x1 kernel
                      ConvShape{8, 8, 4, 16, 3, 1},  // small channels
                      ConvShape{8, 8, 16, 16, 3, 1}, // square
                      ConvShape{10, 6, 8, 32, 3, 1}, // rectangular
                      ConvShape{9, 9, 8, 16, 3, 2},  // strided
                      ConvShape{7, 7, 12, 16, 2, 1}, // even kernel
                      ConvShape{12, 12, 8, 48, 5, 1} // large kernel
                      ));

} // namespace

namespace {

TEST(Tensorize, NarrowVnniVariantsBitExact) {
  for (const char *Name : {"vnni.vpdpbusd.256", "vnni.vpdpbusd.128"}) {
    OpFixture F = makeConv2D(7, 7, 8, 8, 3, 3);
    std::optional<CompiledKernel> K =
        compileWithIntrinsic(F.Op, byName(Name));
    ASSERT_TRUE(K.has_value()) << Name;
    EXPECT_EQ(runToInts(F, K->TIR, 71), referenceInts(F, 71)) << Name;
  }
}

} // namespace

namespace {

/// FNV-1a-64 over \p Text, continuing from \p Hash.
uint64_t fnv1a64(const std::string &Text, uint64_t Hash) {
  for (unsigned char C : Text) {
    Hash ^= C;
    Hash *= 1099511628211ull;
  }
  return Hash;
}

/// The plan of \p View's tuned winner on \p Spec, as the backend builds
/// it.
TensorizePlan winnerPlan(const TargetSpec &Spec, const TunedView &View) {
  bool Cpu = Spec.Engine == TargetSpec::EngineKind::CpuDot;
  TunedKernel Tuned = Cpu ? tuneCpu(View.Op, View.Match, Spec.Cpu)
                          : tuneGpu(View.Op, View.Match, Spec.Gpu);
  EXPECT_GE(Tuned.BestCandidateIndex, 0) << Spec.Id;
  auto Best = static_cast<size_t>(std::max(Tuned.BestCandidateIndex, 0));
  return Cpu ? buildCpuPlan(View.Op, View.Match,
                            defaultCpuTuningPairs()[Best])
             : buildGpuPlan(View.Op, View.Match,
                            defaultGpuTuningConfigs()[Best]);
}

/// Outputs of \p TIR that differ from runComputeOpReference of \p Op on
/// the same seeded inputs. Float inputs are small integers, so every sum
/// is exact in any order.
int64_t mismatchesAgainstReference(const ComputeOpRef &Op,
                                   const StmtRef &TIR, uint64_t Seed) {
  SplitMix64 Rng(Seed);
  std::vector<std::unique_ptr<Buffer>> Inputs;
  std::vector<std::pair<TensorRef, Buffer *>> Bindings;
  Interp In;
  for (const TensorRef &T : Op->inputs()) {
    Inputs.push_back(std::make_unique<Buffer>(T));
    Buffer &B = *Inputs.back();
    if (T->dtype().isFloat())
      for (int64_t I = 0; I < B.size(); ++I)
        B.setFloat(I, static_cast<double>(Rng.uniform(-4, 4)));
    else
      B.fillRandom(Rng);
    In.bind(T, &B);
    Bindings.emplace_back(T, &B);
  }
  Buffer Out(Op->output()), Ref(Op->output());
  In.bind(Op->output(), &Out);
  In.run(TIR);
  Bindings.emplace_back(Op->output(), &Ref);
  runComputeOpReference(Op, Bindings);
  bool Float = Op->output()->dtype().isFloat();
  int64_t Mismatches = 0;
  for (int64_t I = 0; I < Out.size(); ++I)
    Mismatches += Float ? Out.getFloat(I) != Ref.getFloat(I)
                        : Out.getInt(I) != Ref.getInt(I);
  return Mismatches;
}

TEST(Tensorize, TunedSmallConvsRunBitExactOnEveryShippedTarget) {
  // The tuned winner of every view of two small convs on each shipped
  // target, lowered through lowerPlan and interpreted. The 5x5 output of
  // the first leaves a residue under the tiles the tuners pick, so some
  // of the kernels run behind the Replacer's guards.
  ConvLayer Residue{"small.3x3", 16, 7, 7, 16, 3, 3, 1, 0, 0, false};
  ConvLayer Pointwise{"small.1x1", 32, 4, 4, 16, 1, 1, 1, 0, 0, false};
  size_t Guarded = 0;
  for (const std::string &Id : shippedTargetIds()) {
    TargetSpec Spec = TargetRegistry::instance().specFor(Id);
    size_t Kernels = 0;
    for (const ConvLayer &L : {Residue, Pointwise})
      for (const TunedView &View : tunedConvViews(Spec, L)) {
        StmtRef TIR = lowerPlan(winnerPlan(Spec, View));
        Guarded += stmtToString(TIR).find("likely(") != std::string::npos;
        EXPECT_EQ(mismatchesAgainstReference(View.Op, TIR, 7 + Kernels), 0)
            << Id << " " << L.Name << " " << View.Match.Intrinsic->name();
        ++Kernels;
      }
    EXPECT_GT(Kernels, 0u) << Id;
  }
  EXPECT_GT(Guarded, 0u);
}

TEST(ReplacerOutput, ZooWinnersLowerToTheRecordedTIR) {
  // The Replacer's output for the tuned winner of every distinct
  // non-depthwise zoo conv (depthwise layers fall back to SIMD) on every
  // builtin target and on both shipped spec files, one FNV-1a-64 per
  // target over the printed TIR in zoo order. A change to operand
  // generation, lowering or schedule resolution that moves one byte of
  // one kernel moves its target's hash.
  std::vector<ConvLayer> Layers;
  std::set<std::string> Seen;
  for (const Model &M : paperModels())
    for (const ConvLayer &L : M.Convs)
      if (!L.Depthwise && Seen.insert(L.shapeKey()).second)
        Layers.push_back(L);

  const std::map<std::string, uint64_t> Recorded = {
      {"x86", 0x380507cf42d8a1f3ull},
      {"arm", 0x7a02316736073b5dull},
      {"nvgpu", 0xe6e18776ca6938ebull},
      {"x86-amx", 0xbf8e47b685f1d60eull},
      {"arm-sve", 0x1e89b91e8115561aull},
      {"fixed16-dma", 0x2fa9007fea10c86aull},
      {"nvgpu-s8", 0x728196c7b11ca01full},
  };
  for (const std::string &Id : shippedTargetIds()) {
    TargetSpec Spec = TargetRegistry::instance().specFor(Id);
    bool Cpu = Spec.Engine == TargetSpec::EngineKind::CpuDot;
    uint64_t Hash = 14695981039346656037ull;
    size_t Kernels = 0;
    for (const ConvLayer &L : Layers)
      for (const TunedView &View : tunedConvViews(Spec, L)) {
        TunedKernel Tuned = Cpu ? tuneCpu(View.Op, View.Match, Spec.Cpu)
                                : tuneGpu(View.Op, View.Match, Spec.Gpu);
        ASSERT_GE(Tuned.BestCandidateIndex, 0) << Id << " " << L.Name;
        auto Best = static_cast<size_t>(Tuned.BestCandidateIndex);
        TensorizePlan Plan =
            Cpu ? buildCpuPlan(View.Op, View.Match,
                               defaultCpuTuningPairs()[Best])
                : buildGpuPlan(View.Op, View.Match,
                               defaultGpuTuningConfigs()[Best]);
        Hash = fnv1a64(stmtToString(lowerPlan(Plan)) + "\n", Hash);
        ++Kernels;
      }
    EXPECT_GT(Kernels, Layers.size() / 2) << Id;
    EXPECT_EQ(Hash, Recorded.at(Id)) << Id << ": 0x" << std::hex << Hash;
  }
}

} // namespace
