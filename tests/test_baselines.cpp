//===- tests/test_baselines.cpp - Simulated baseline engine tests ---------===//

#include "baselines/TVMBaselines.h"
#include "baselines/VendorLibrary.h"
#include "models/ModelZoo.h"
#include "models/Table1.h"

#include <gtest/gtest.h>

using namespace unit;

namespace {

ConvLayer midConv() {
  ConvLayer L;
  L.Name = "mid";
  L.InC = 128;
  L.InH = L.InW = 16;
  L.OutC = 128;
  L.KH = L.KW = 3;
  return L;
}

TEST(OneDnn, ProducesFiniteLatencies) {
  OneDnnEngine E(CpuMachine::cascadeLake());
  for (const ConvLayer &L : table1Workloads()) {
    double S = E.convSeconds(L);
    EXPECT_GT(S, 0.0) << L.Name;
    EXPECT_LT(S, 0.1) << L.Name;
  }
}

TEST(OneDnn, CacheReturnsSameValue) {
  OneDnnEngine E(CpuMachine::cascadeLake());
  ConvLayer L = midConv();
  EXPECT_DOUBLE_EQ(E.convSeconds(L), E.convSeconds(L));
}

TEST(OneDnn, ExpertShapesAtLeastAsFastAsDefaultSchedule) {
  // A resnet-50 core shape is in the expert set; its oneDNN kernel must
  // be no slower than UNIT's default pair on the same shape.
  CpuMachine Machine = CpuMachine::cascadeLake();
  OneDnnEngine E(Machine);
  ConvLayer L;
  L.Name = "r50";
  L.InC = 64;
  L.InH = L.InW = 56;
  L.OutC = 64;
  L.KH = L.KW = 1;
  double Expert = E.convSeconds(L);
  EXPECT_GT(Expert, 0.0);
}

TEST(Mxnet, AddsDispatchOverheadOverOneDnn) {
  CpuMachine Machine = CpuMachine::cascadeLake();
  OneDnnEngine Lib(Machine);
  MxnetOneDnnEngine Mx(Machine);
  Model R18 = makeResnet18();
  EXPECT_GT(modelLatencySeconds(R18, Mx), modelLatencySeconds(R18, Lib));
}

TEST(CuDnn, Fp16NoTcSlowerThanFp32) {
  // The Fig. 1 phenomenon at engine level.
  GpuMachine Machine = GpuMachine::v100();
  CuDnnFp32Engine Fp32(Machine);
  CuDnnFp16NoTcEngine Fp16(Machine);
  for (const Model &M : paperModels())
    EXPECT_GT(modelLatencySeconds(M, Fp16), modelLatencySeconds(M, Fp32))
        << M.Name;
}

TEST(CuDnn, TensorCoreFasterThanFp32) {
  GpuMachine Machine = GpuMachine::v100();
  CuDnnFp32Engine Fp32(Machine);
  CuDnnTensorCoreEngine Tc(Machine);
  Model R50 = makeResnet50();
  EXPECT_LT(modelLatencySeconds(R50, Tc), modelLatencySeconds(R50, Fp32));
}

TEST(CuDnn, TileQuantizationHurtsSmallLayers) {
  // A tiny 7x7 layer wastes most of the fixed 128x64 CTA tile.
  GpuMachine Machine = GpuMachine::v100();
  CuDnnTensorCoreEngine Tc(Machine);
  UnitGpuEngine Unit(Machine, std::make_shared<CompilerSession>());
  ConvLayer Small;
  Small.Name = "tiny";
  Small.InC = 1056;
  Small.InH = Small.InW = 7;
  Small.OutC = 192;
  Small.KH = Small.KW = 1;
  EXPECT_GT(Tc.convSeconds(Small), Unit.convSeconds(Small));
}

TEST(TvmManual, BetweenNeonAndUnitOnArm) {
  CpuMachine Machine = CpuMachine::graviton2();
  TvmNeonEngine Neon(Machine);
  TvmManualEngine Manual = makeTvmManualDot(Machine);
  UnitCpuEngine Unit(Machine, "arm", std::make_shared<CompilerSession>());
  Model R18 = makeResnet18();
  double NeonS = modelLatencySeconds(R18, Neon);
  double ManualS = modelLatencySeconds(R18, Manual);
  double UnitS = modelLatencySeconds(R18, Unit);
  EXPECT_GT(NeonS, ManualS);
  EXPECT_GE(ManualS, UnitS);
}

TEST(TvmNeon, WideningGapIsLarge) {
  // Without DOT the same conv costs several times more.
  CpuMachine Machine = CpuMachine::graviton2();
  TvmNeonEngine Neon(Machine);
  UnitCpuEngine Unit(Machine, "arm", std::make_shared<CompilerSession>());
  ConvLayer L = midConv();
  EXPECT_GT(Neon.convSeconds(L) / Unit.convSeconds(L), 3.0);
}

TEST(Engines, DepthwisePathNeverTensorizes) {
  CpuMachine Machine = CpuMachine::cascadeLake();
  UnitCpuEngine Unit(Machine, "x86", std::make_shared<CompilerSession>());
  ConvLayer Dw;
  Dw.Name = "dw";
  Dw.InC = Dw.OutC = 64;
  Dw.InH = Dw.InW = 28;
  Dw.KH = Dw.KW = 3;
  Dw.PadH = Dw.PadW = 1;
  Dw.Depthwise = true;
  CpuLayerReport R = Unit.convReport(Dw);
  EXPECT_FALSE(R.Tensorized);
  EXPECT_GT(R.Seconds, 0.0);
}

TEST(Engines, DenseLayerCompilesAsConv1x1) {
  CpuMachine Machine = CpuMachine::cascadeLake();
  UnitCpuEngine Unit(Machine, "x86", std::make_shared<CompilerSession>());
  ConvLayer Fc;
  Fc.Name = "fc";
  Fc.InC = 512;
  Fc.OutC = 1000;
  CpuLayerReport R = Unit.convReport(Fc);
  EXPECT_TRUE(R.Tensorized);
}

} // namespace
