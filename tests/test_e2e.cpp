//===- tests/test_e2e.cpp - End-to-end integration tests -------------------===//
//
// Cross-module integration: whole models compiled through the full UNIT
// stack, checking the headline relationships the paper reports (who wins,
// roughly by how much) and the structural claims (>95% of kernels optimal
// within the first 8 tuning pairs, every non-depthwise conv tensorized).
//
//===----------------------------------------------------------------------===//

#include "baselines/TVMBaselines.h"
#include "baselines/VendorLibrary.h"
#include "models/ModelZoo.h"
#include "models/Table1.h"
#include "tuner/Tuner.h"
#include "target/TargetRegistry.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace unit;

namespace {

double geomean(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += std::log(X);
  return std::exp(S / static_cast<double>(V.size()));
}

TEST(E2E, EveryNonDepthwiseConvTensorizesOnX86) {
  CpuMachine Machine = CpuMachine::cascadeLake();
  UnitCpuEngine Unit(Machine, "x86", std::make_shared<CompilerSession>());
  for (const Model &M : paperModels())
    for (const ConvLayer &L : M.Convs) {
      CpuLayerReport R = Unit.convReport(L);
      EXPECT_EQ(R.Tensorized, !L.Depthwise) << M.Name << "/" << L.Name;
    }
}

TEST(E2E, CpuHeadline_UnitBeatsMxnetAndTvm) {
  CpuMachine Machine = CpuMachine::cascadeLake();
  MxnetOneDnnEngine Mxnet(Machine);
  TvmManualEngine Tvm = makeTvmManualVnni(Machine);
  UnitCpuEngine Unit(Machine, "x86", std::make_shared<CompilerSession>());
  std::vector<double> VsMxnet, VsTvm;
  for (const Model &M : paperModels()) {
    double Base = modelLatencySeconds(M, Mxnet);
    double TvmS = modelLatencySeconds(M, Tvm);
    double UnitS = modelLatencySeconds(M, Unit);
    VsMxnet.push_back(Base / UnitS);
    VsTvm.push_back(TvmS / UnitS);
    EXPECT_LT(UnitS, Base) << M.Name;
    EXPECT_LE(UnitS, TvmS * 1.001) << M.Name;
  }
  // Paper: 1.3x over MXNet-oneDNN, 1.18x over TVM.
  EXPECT_GT(geomean(VsMxnet), 1.15);
  EXPECT_LT(geomean(VsMxnet), 1.6);
  EXPECT_GT(geomean(VsTvm), 1.03);
  EXPECT_LT(geomean(VsTvm), 1.4);
}

TEST(E2E, GpuHeadline_UnitBeatsCuDnn) {
  GpuMachine Machine = GpuMachine::v100();
  CuDnnTensorCoreEngine CuDnn(Machine);
  UnitGpuEngine Unit(Machine, std::make_shared<CompilerSession>());
  std::vector<double> Rel;
  for (const Model &M : paperModels()) {
    double Base = modelLatencySeconds(M, CuDnn);
    double UnitS = modelLatencySeconds(M, Unit);
    Rel.push_back(Base / UnitS);
    EXPECT_LT(UnitS, Base) << M.Name;
  }
  // Paper: 1.75x mean, up to 2.2x.
  EXPECT_GT(geomean(Rel), 1.4);
  EXPECT_LT(geomean(Rel), 2.2);
}

TEST(E2E, ArmHeadline_OrderingHolds) {
  CpuMachine Machine = CpuMachine::graviton2();
  TvmNeonEngine Neon(Machine);
  TvmManualEngine Manual = makeTvmManualDot(Machine);
  UnitCpuEngine Unit(Machine, "arm", std::make_shared<CompilerSession>());
  std::vector<double> VsNeon, VsManual;
  for (const Model &M : paperModels()) {
    double NeonS = modelLatencySeconds(M, Neon);
    double ManualS = modelLatencySeconds(M, Manual);
    double UnitS = modelLatencySeconds(M, Unit);
    VsNeon.push_back(NeonS / UnitS);
    VsManual.push_back(ManualS / UnitS);
    EXPECT_LT(UnitS, NeonS) << M.Name;
    EXPECT_LE(UnitS, ManualS * 1.001) << M.Name;
  }
  // Paper: huge gaps over NEON, 1.13x over the manual schedules.
  EXPECT_GT(geomean(VsNeon), 3.0);
  EXPECT_GT(geomean(VsManual), 1.02);
  EXPECT_LT(geomean(VsManual), 1.35);
}

TEST(E2E, Fig1Headline_NaiveFp16IsSlower) {
  GpuMachine Machine = GpuMachine::v100();
  CuDnnFp32Engine Fp32(Machine);
  CuDnnFp16NoTcEngine Fp16(Machine);
  for (const Model &M : paperModels())
    EXPECT_GT(modelLatencySeconds(M, Fp16), modelLatencySeconds(M, Fp32))
        << M.Name;
}

TEST(E2E, TuningConvergence_MostKernelsWithinFirst8Pairs) {
  // Paper §VI.B: >95% of kernels optimal within the first 8 tuning pairs,
  // more than half at the very first.
  CpuMachine Machine = CpuMachine::cascadeLake();
  QuantScheme Scheme = TargetRegistry::instance().get("x86")->scheme();
  int Total = 0, WithinFirst8 = 0;
  for (const ConvLayer &L : table1Workloads()) {
    LaidOutOp Laid =
        buildDirectConvOp(L, Scheme.Activation, Scheme.Weight,
                          Scheme.Accumulator, Scheme.LaneMultiple,
                          Scheme.ReduceMultiple);
    std::vector<MatchResult> Ms = inspectTarget(Laid.Op, "x86");
    ASSERT_FALSE(Ms.empty());
    TunedKernel T = tuneCpu(Laid.Op, Ms.front(), Machine);
    ++Total;
    WithinFirst8 += T.BestCandidateIndex < 8;
  }
  EXPECT_GE(WithinFirst8, Total * 8 / 10);
}

TEST(E2E, AdversarialCpuWorkloadsLoseToOneDnn) {
  // Paper: "CPU does poorly on workloads #1 and #4, because their output
  // shapes can neither be perfectly tiled nor fully unrolled."
  CpuMachine Machine = CpuMachine::cascadeLake();
  OneDnnEngine OneDnn(Machine);
  UnitCpuEngine Unit(Machine, "x86", std::make_shared<CompilerSession>());
  std::vector<ConvLayer> W = table1Workloads();
  EXPECT_GT(Unit.convSeconds(W[0]), OneDnn.convSeconds(W[0])) << "#1";
  EXPECT_GT(Unit.convSeconds(W[3]), OneDnn.convSeconds(W[3])) << "#4";
  // ...while a friendly 14x14 layer wins.
  EXPECT_LT(Unit.convSeconds(W[5]), OneDnn.convSeconds(W[5])) << "#6";
}

TEST(E2E, Conv3dExtensibilityAveragesAboveOne) {
  // Paper Fig. 13: ~1.2x average over the oneDNN-style baseline.
  CpuMachine Machine = CpuMachine::cascadeLake();
  QuantScheme Scheme = TargetRegistry::instance().get("x86")->scheme();
  std::vector<double> Rel;
  std::vector<Conv3dLayer> Layers = makeResnet18Conv3d();
  for (size_t I = 0; I < Layers.size() && I < 6; ++I) {
    LaidOutOp Laid = buildDirectConv3dOp(Layers[I], Scheme.Activation,
                                         Scheme.Weight, Scheme.Accumulator,
                                         Scheme.LaneMultiple,
                                         Scheme.ReduceMultiple);
    std::vector<MatchResult> Ms = inspectTarget(Laid.Op, "x86");
    ASSERT_FALSE(Ms.empty()) << "conv3d must tensorize unchanged";
    TensorizePlan Fixed =
        buildCpuPlan(Laid.Op, Ms.front(), CpuTuningPair{1024, 4});
    KernelStats FS = analyzeTensorized(Fixed);
    FS.HasResidueGuards = false;
    double Ref = cpuLatencySeconds(FS, Machine);
    double Tuned = tuneCpu(Laid.Op, Ms.front(), Machine).LatencySeconds;
    Rel.push_back(Ref / Tuned);
  }
  EXPECT_GT(geomean(Rel), 0.95);
}

} // namespace
