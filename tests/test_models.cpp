//===- tests/test_models.cpp - Model zoo and Table I tests ----------------===//

#include "models/ModelZoo.h"
#include "models/Table1.h"

#include <gtest/gtest.h>

#include <set>

using namespace unit;

namespace {

TEST(ModelZoo, NineModelsInPaperOrder) {
  std::vector<Model> Models = paperModels();
  ASSERT_EQ(Models.size(), 9u);
  EXPECT_EQ(Models[0].Name, "resnet-18");
  EXPECT_EQ(Models[1].Name, "resnet-50");
  EXPECT_EQ(Models[2].Name, "resnet-50_v1b");
  EXPECT_EQ(Models[3].Name, "inception-bn");
  EXPECT_EQ(Models[4].Name, "inception-v3");
  EXPECT_EQ(Models[8].Name, "mobilenet-v2");
}

TEST(ModelZoo, ConvCountsMatchArchitectures) {
  EXPECT_EQ(makeResnet18().Convs.size(), 21u);   // 20 convs + fc.
  EXPECT_EQ(makeResnet50().Convs.size(), 54u);   // 53 convs + fc.
  EXPECT_EQ(makeResnet101().Convs.size(), 105u); // 104 convs + fc.
  EXPECT_EQ(makeResnet152().Convs.size(), 156u);
  EXPECT_EQ(makeMobilenetV1().Convs.size(), 28u); // 1 + 13*2 + fc.
}

TEST(ModelZoo, Resnet50V1bMovesStrideToThe3x3) {
  Model V1 = makeResnet50(), V1b = makeResnet50V1b();
  auto FindStride2NonDown = [](const Model &M, int64_t KernelSize) {
    int Count = 0;
    for (const ConvLayer &L : M.Convs)
      if (L.Stride == 2 && L.KH == KernelSize &&
          L.Name.find("down") == std::string::npos &&
          L.Name.find("conv0") == std::string::npos)
        ++Count;
    return Count;
  };
  EXPECT_GT(FindStride2NonDown(V1, 1), 0);  // v1: stride on a 1x1.
  EXPECT_EQ(FindStride2NonDown(V1, 3), 0);
  EXPECT_GT(FindStride2NonDown(V1b, 3), 0); // v1b: stride on the 3x3.
  EXPECT_EQ(FindStride2NonDown(V1b, 1), 0);
}

TEST(ModelZoo, ShapesAreInternallyConsistent) {
  for (const Model &M : paperModels()) {
    for (const ConvLayer &L : M.Convs) {
      EXPECT_GT(L.outH(), 0) << M.Name << "/" << L.Name;
      EXPECT_GT(L.outW(), 0) << M.Name << "/" << L.Name;
      EXPECT_GT(L.macs(), 0) << M.Name << "/" << L.Name;
      if (L.Depthwise) {
        EXPECT_EQ(L.InC, L.OutC) << M.Name << "/" << L.Name;
      }
    }
  }
}

TEST(ModelZoo, MobilenetsHaveDepthwiseLayers) {
  auto CountDw = [](const Model &M) {
    int N = 0;
    for (const ConvLayer &L : M.Convs)
      N += L.Depthwise;
    return N;
  };
  EXPECT_EQ(CountDw(makeMobilenetV1()), 13);
  EXPECT_EQ(CountDw(makeMobilenetV2()), 17);
  EXPECT_EQ(CountDw(makeResnet50()), 0);
}

TEST(ModelZoo, DistinctWorkloadsNearPaperCount) {
  // The paper counts 148 distinct conv workloads across the nine models.
  std::set<std::string> Keys;
  for (const Model &M : paperModels())
    for (const ConvLayer &L : M.Convs)
      if (L.InH > 1)
        Keys.insert(L.shapeKey());
  EXPECT_GE(Keys.size(), 120u);
  EXPECT_LE(Keys.size(), 180u);
}

TEST(ModelZoo, InceptionV3HasAsymmetricKernels) {
  int Asymmetric = 0;
  for (const ConvLayer &L : makeInceptionV3().Convs)
    Asymmetric += L.KH != L.KW;
  EXPECT_GE(Asymmetric, 20); // The 1x7/7x1 factorized branches.
}

TEST(ModelZoo, ElementwiseTrafficAccumulated) {
  for (const Model &M : paperModels()) {
    EXPECT_GT(M.ElementwiseBytes, 0.0) << M.Name;
    EXPECT_GT(M.GlueOps, 0) << M.Name;
  }
}

TEST(Table1, MatchesPaperRows) {
  std::vector<ConvLayer> W = table1Workloads();
  ASSERT_EQ(W.size(), 16u);
  // Spot-check the rows the paper discusses.
  EXPECT_EQ(W[0].InC, 288); // #1: the inception-v3 grid reduction.
  EXPECT_EQ(W[0].Stride, 2);
  EXPECT_EQ(W[0].outH(), 17);
  EXPECT_EQ(W[3].InC, 80); // #4: the 73x73 -> 71x71 stem conv.
  EXPECT_EQ(W[3].outH(), 71);
  EXPECT_EQ(W[14].Stride, 2); // #15: the strided 1x1 downsample.
  EXPECT_EQ(W[14].outH(), 28);
  EXPECT_EQ(W[7].InC, 1024); // #8: deep-channel 1x1.
  EXPECT_EQ(W[7].KH, 1);
}

TEST(Table1, AllRowsAppearInTheModelZoo) {
  // Table I selects layers "in the models"; verify each row's shape
  // signature (C, IHW, K, R, stride, OHW) is realized by some zoo conv,
  // up to the padding convention (the zoo uses SAME padding for most
  // layers; Table I lists valid-padded signatures, so compare the
  // computation-defining fields only).
  int Found = 0;
  std::vector<Model> Models = paperModels();
  for (const ConvLayer &W : table1Workloads()) {
    bool Hit = false;
    for (const Model &M : Models)
      for (const ConvLayer &L : M.Convs)
        if (L.InC == W.InC && L.OutC == W.OutC && L.KH == W.KH &&
            L.Stride == W.Stride && !L.Depthwise &&
            std::abs(L.outH() - W.outH()) <= 2)
          Hit = true;
    Found += Hit;
  }
  EXPECT_GE(Found, 12) << "most Table I rows should trace back to the zoo";
}

TEST(Conv3d, Res18LiftHasElevenPlusLayers) {
  std::vector<Conv3dLayer> Layers = makeResnet18Conv3d();
  EXPECT_GE(Layers.size(), 11u);
  for (const Conv3dLayer &L : Layers) {
    EXPECT_GT(L.outD(), 0);
    EXPECT_GT(L.outH(), 0);
  }
}

} // namespace
