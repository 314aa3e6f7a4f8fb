//===- examples/async_compile.cpp - The unified compile surface ------------===//
//
// Demonstrates the Workload / CompileRequest / CompileJob API:
//
//   1. every workload kind (conv2d, dense-as-1x1, conv3d, raw op) flows
//      through the same CompileRequest entry point;
//   2. compileAsync overlaps work — a whole model is "submit all, then
//      join" while this thread stays free;
//   3. the kernel cache persists, so a second session (standing in for a
//      second process) restores it and compiles with zero tuning.
//
//===----------------------------------------------------------------------===//

#include "models/ModelZoo.h"
#include "runtime/CompileRequest.h"
#include "runtime/CompilerSession.h"
#include "tuner/Tuner.h"

#include <cstdio>
#include <vector>

using namespace unit;

int main() {
  CompilerSession Session;

  // --- One entry point for every workload kind ---------------------------
  ConvLayer Conv{"conv3x3", 64, 56, 56, 64, 3, 3, 1, 1, 1, false};
  KernelReport ConvReport =
      Session.compile({Workload::conv2d(Conv), "x86"});
  KernelReport DenseReport =
      Session.compile({Workload::dense("fc", 512, 1000), "x86"});
  Conv3dLayer C3;
  C3.Name = "conv3d";
  C3.InC = 64;
  C3.InD = C3.InH = C3.InW = 14;
  C3.OutC = 64;
  C3.K = 3;
  C3.Pad = 1;
  KernelReport Conv3dReport =
      Session.compile({Workload::conv3d(C3), "x86"});
  std::printf("conv2d %.1f us (%s) | dense %.1f us | conv3d %.1f us (%s)\n",
              ConvReport.Seconds * 1e6, ConvReport.IntrinsicName.c_str(),
              DenseReport.Seconds * 1e6, Conv3dReport.Seconds * 1e6,
              Conv3dReport.IntrinsicName.c_str());

  // --- Submit all, then join ---------------------------------------------
  Model Resnet = makeResnet18();
  std::vector<CompileJob> Jobs;
  for (const ConvLayer &L : Resnet.Convs)
    Jobs.push_back(Session.compileAsync({Workload::conv2d(L), "x86"}));
  // ... this thread is free to price the graph, load weights, etc. ...
  double Total = 0;
  for (const CompileJob &Job : Jobs)
    Total += Job.get().Seconds; // Joins; rethrows on compile failure.
  std::printf("resnet18: %zu layers submitted async, sum of kernels %.2f ms\n",
              Jobs.size(), Total * 1e3);

  // --- Persist, restore, compile with zero tuning ------------------------
  const char *Path = "async_compile.cache.kc";
  std::optional<size_t> Saved = Session.saveCache(Path);
  if (!Saved) {
    std::fprintf(stderr, "could not write %s\n", Path);
    return 1;
  }
  CompilerSession SecondRun;
  SecondRun.loadCache(Path);
  uint64_t TunesBefore = tunerInvocations();
  ModelCompileResult Warm = SecondRun.compileModel(Resnet, "x86");
  std::printf("second run: %zu kernels restored from disk, %zu/%zu layers "
              "warm, %llu tuner invocations\n",
              *Saved, Warm.CacheHitLayers, Resnet.Convs.size(),
              static_cast<unsigned long long>(tunerInvocations() -
                                              TunesBefore));
  std::remove(Path);
  return 0;
}
