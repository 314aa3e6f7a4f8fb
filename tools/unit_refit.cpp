//===- tools/unit_refit.cpp - Refit machine constants from the host ---------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
// Measures the host it runs on and writes a machine-overlay file
// (docs/TUNING.md "Cost-model refit"): the two machine-model constants a
// host can measure cheaply — DRAM bandwidth (a 64 MiB memcpy sweep) and
// parallel-region fork/join overhead (200 empty parallelFor regions) —
// are recomputed from the probe, everything else keeps its registered
// value.
//
//   unit_refit [--target ID]... [--out refit_overlay.json] [--apply]
//
// The overlay is consumed by `unit_serve --machine-overlay FILE` (or any
// host calling applyMachineOverlayFile); --apply additionally loads it
// into this process and prints the refit spec hashes, which doubles as an
// end-to-end validation of the generated file.
//
//===----------------------------------------------------------------------===//

#include "server/Protocol.h"
#include "support/ThreadPool.h"
#include "support/Time.h"
#include "target/MachineOverlay.h"
#include "target/TargetRegistry.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace unit;

namespace {

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --target ID    CPU target to refit (repeatable; default: every\n"
      "                 spec-registered CPU target)\n"
      "  --out FILE     overlay file to write (default refit_overlay.json)\n"
      "  --apply        also apply the overlay to this process and print\n"
      "                 the refit spec hashes (validates the file)\n",
      Argv0);
}

struct HostProbe {
  double MemcpyGbps = 0;
  double ForkJoinUs = 0;
};

HostProbe probeHost() {
  HostProbe Probe;
  // Buffers far beyond L3 so the copy streams from DRAM. One warm pass
  // to fault the pages, then timed passes counting read+write traffic.
  // The volatile read of each copy keeps the compiler from dropping it.
  constexpr size_t Bytes = size_t(64) << 20;
  constexpr int Passes = 4;
  std::vector<char> Src(Bytes, 1), Dst(Bytes, 0);
  std::memcpy(Dst.data(), Src.data(), Bytes);
  volatile const char *Copied = Dst.data();
  double T0 = steadyNowSeconds();
  for (int I = 0; I < Passes; ++I) {
    std::memcpy(Dst.data(), Src.data(), Bytes);
    (void)Copied[Bytes - 1];
  }
  double CopySeconds = steadyNowSeconds() - T0;
  Probe.MemcpyGbps =
      2.0 * static_cast<double>(Bytes) * Passes / CopySeconds / 1e9;

  ThreadPool Pool;
  // Warm the pool (first region pays thread wake-up), then time empty
  // regions: pure fork + join, no body.
  Pool.parallelFor(Pool.threadCount(), [](size_t) {});
  constexpr int Regions = 200;
  T0 = steadyNowSeconds();
  for (int I = 0; I < Regions; ++I)
    Pool.parallelFor(Pool.threadCount(), [](size_t) {});
  Probe.ForkJoinUs = (steadyNowSeconds() - T0) / Regions * 1e6;
  // Below-timer-resolution readings still have to pass the positivity
  // check below, so floor at 1 ns.
  if (Probe.ForkJoinUs < 0.001)
    Probe.ForkJoinUs = 0.001;
  std::printf("host probe: memcpy %.1f GB/s | fork/join %.1f us "
              "(%u threads)\n",
              Probe.MemcpyGbps, Probe.ForkJoinUs, Pool.threadCount());
  return Probe;
}

} // namespace

int main(int argc, char **argv) {
  std::string OutPath = "refit_overlay.json";
  std::vector<std::string> Targets;
  bool Apply = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto NextValue = [&]() -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Arg.c_str());
        std::exit(2);
      }
      return argv[++I];
    };
    if (Arg == "--target")
      Targets.push_back(NextValue());
    else if (Arg == "--out")
      OutPath = NextValue();
    else if (Arg == "--apply")
      Apply = true;
    else if (Arg == "--help" || Arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", Arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  const HostProbe Probe = probeHost();
  if (!std::isfinite(Probe.MemcpyGbps) || Probe.MemcpyGbps <= 0 ||
      !std::isfinite(Probe.ForkJoinUs) || Probe.ForkJoinUs <= 0) {
    std::fprintf(stderr,
                 "error: host probe needs positive memcpy_gbps and "
                 "fork_join_us\n");
    return 1;
  }

  TargetRegistry &Registry = TargetRegistry::instance();
  if (Targets.empty())
    for (const TargetBackendRef &B : Registry.all())
      if (Registry.hasSpecFor(B->id()) &&
          Registry.specFor(B->id()).Engine == TargetSpec::EngineKind::CpuDot)
        Targets.push_back(B->id());

  Json RefitArray = Json::array();
  for (const std::string &Id : Targets) {
    if (!Registry.lookup(Id) || !Registry.hasSpecFor(Id)) {
      std::fprintf(stderr, "error: '%s' is not a spec-registered target\n",
                   Id.c_str());
      return 1;
    }
    TargetSpec Spec = Registry.specFor(Id);
    if (Spec.Engine != TargetSpec::EngineKind::CpuDot) {
      std::fprintf(stderr,
                   "error: '%s' is a GPU target; the host probe measures "
                   "the host CPU\n",
                   Id.c_str());
      return 1;
    }
    // The probe measures wall-clock quantities; the model wants cycles at
    // the spec's frequency: bytes/cycle = (GB/s) / GHz, and cycles =
    // microseconds * GHz * 1000.
    double DramBytesPerCycle = Probe.MemcpyGbps / Spec.Cpu.FreqGHz;
    double ForkJoinCycles = Probe.ForkJoinUs * Spec.Cpu.FreqGHz * 1e3;
    std::printf("%-10s dram_bytes_per_cycle %7.2f -> %7.2f | "
                "fork_join_cycles %8.0f -> %8.0f\n",
                Id.c_str(), Spec.Cpu.DramBytesPerCycle, DramBytesPerCycle,
                Spec.Cpu.ForkJoinCycles, ForkJoinCycles);
    Json Cpu = Json::object();
    Cpu.set("dram_bytes_per_cycle", DramBytesPerCycle);
    Cpu.set("fork_join_cycles", ForkJoinCycles);
    Json Entry = Json::object();
    Entry.set("target", Id);
    Entry.set("cpu", std::move(Cpu));
    RefitArray.push(std::move(Entry));
  }
  if (RefitArray.items().empty()) {
    std::fprintf(stderr, "error: no CPU targets to refit\n");
    return 1;
  }

  Json Overlay = Json::object();
  Overlay.set("version", 1);
  Overlay.set("refit", std::move(RefitArray));
  std::string Text = Overlay.dump();
  std::FILE *Out = std::fopen(OutPath.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", OutPath.c_str());
    return 1;
  }
  std::fprintf(Out, "%s\n", Text.c_str());
  std::fclose(Out);
  std::printf("wrote %s (%zu targets)\n", OutPath.c_str(),
              Overlay.get("refit")->items().size());

  if (Apply) {
    std::string Err;
    if (!applyMachineOverlayText(Text, &Err)) {
      std::fprintf(stderr, "error: generated overlay failed to apply: %s\n",
                   Err.c_str());
      return 1;
    }
    for (const Json &Entry : Overlay.get("refit")->items()) {
      std::string Id = Entry.str("target");
      std::printf("%-10s refit spec hash %s\n", Id.c_str(),
                  Registry.specFor(Id).hash().c_str());
    }
  }
  return 0;
}
