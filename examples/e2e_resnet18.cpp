//===- examples/e2e_resnet18.cpp - End-to-end model compilation ------------===//
//
// Compiles quantized resnet-18 through the full UNIT stack — graph-level
// quantization/layout/fusion, per-layer Inspector/Rewriter/Tuner — and
// prints the per-layer report (instruction used, winning tuning pair,
// modeled latency) plus the end-to-end comparison against the simulated
// MXNet+oneDNN and TVM baselines.
//
//===----------------------------------------------------------------------===//

#include "baselines/TVMBaselines.h"
#include "baselines/VendorLibrary.h"
#include "models/ModelZoo.h"
#include "support/StringUtils.h"
#include "support/Table.h"

#include <cstdio>
#include <set>

using namespace unit;

int main() {
  CpuMachine Machine = CpuMachine::cascadeLake();
  Model R18 = makeResnet18();
  UnitCpuEngine Unit(Machine, "x86", std::make_shared<CompilerSession>());

  std::printf("Compiling %s: %zu compute layers, %d distinct conv shapes\n\n",
              R18.Name.c_str(), R18.Convs.size(), R18.distinctConvShapes());

  Table T({"layer", "shape (CxHxW -> K, RxS/s)", "tensorized", "pair#",
           "modeled-us"});
  std::set<std::string> Seen;
  double Total = 0;
  for (const ConvLayer &L : R18.Convs) {
    CpuLayerReport Report = Unit.convReport(L);
    Total += Report.Seconds;
    std::string Shape = formatStr(
        "%lldx%lldx%lld -> %lld, %lldx%lld/%lld",
        static_cast<long long>(L.InC), static_cast<long long>(L.InH),
        static_cast<long long>(L.InW), static_cast<long long>(L.OutC),
        static_cast<long long>(L.KH), static_cast<long long>(L.KW),
        static_cast<long long>(L.Stride));
    bool First = Seen.insert(L.shapeKey()).second;
    T.addRow({L.Name, Shape, Report.Tensorized ? "vnni.vpdpbusd" : "simd",
              Report.Tensorized ? std::to_string(Report.BestCandidateIndex + 1)
                                : "-",
              formatStr("%.1f%s", Report.Seconds * 1e6,
                        First ? "" : " (cached)")});
  }
  T.print();
  std::printf("\nSum of conv kernels: %.2f ms\n", Total * 1e3);

  MxnetOneDnnEngine Mxnet(Machine);
  TvmManualEngine Tvm = makeTvmManualVnni(Machine);
  double UnitE2e = modelLatencySeconds(R18, Unit);
  double MxnetE2e = modelLatencySeconds(R18, Mxnet);
  double TvmE2e = modelLatencySeconds(R18, Tvm);
  std::printf("\nEnd-to-end (bs=1, modeled):\n");
  std::printf("  %-18s %.2f ms\n", Mxnet.name().c_str(), MxnetE2e * 1e3);
  std::printf("  %-18s %.2f ms\n", Tvm.name().c_str(), TvmE2e * 1e3);
  std::printf("  %-18s %.2f ms  (%.2fx over MXNet)\n", Unit.name().c_str(),
              UnitE2e * 1e3, MxnetE2e / UnitE2e);
  return 0;
}
