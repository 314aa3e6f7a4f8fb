//===- perf/MachineModel.h - Analytic machine descriptions -----------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parameterized machine models standing in for the paper's hardware
/// (AWS c5.12xlarge Cascade Lake, p3.2xlarge V100, m6g.8xlarge Graviton2).
/// The performance mechanisms the paper's tuner exploits are modeled
/// explicitly — dependent-issue latency hidden by unrolled accumulators,
/// thread fork/join overhead, I-cache pressure from deep unrolling,
/// residue-guard branches, SM occupancy, register-pressure spills, split-K
/// synchronization, and bandwidth rooflines — so tuning decisions have the
/// same qualitative consequences they have on silicon. See DESIGN.md for
/// the substitution rationale.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_PERF_MACHINEMODEL_H
#define UNIT_PERF_MACHINEMODEL_H

#include <cstdint>
#include <string>
#include <vector>

namespace unit {

/// One machine parameter as spec files, machine overlays and cache
/// fingerprints see it: its snake_case key and the member it names. A
/// parameter is either a finite positive real (Real set) or a positive
/// integer count such as cores or SMs (Count set).
template <typename MachineT> struct MachineField {
  const char *Key;
  double MachineT::*Real = nullptr;
  int MachineT::*Count = nullptr;

  MachineField(const char *Key, double MachineT::*Real)
      : Key(Key), Real(Real) {}
  MachineField(const char *Key, int MachineT::*Count)
      : Key(Key), Count(Count) {}

  double get(const MachineT &M) const {
    return Real ? M.*Real : static_cast<double>(M.*Count);
  }
  /// Callers validate \p V first; a count field takes an integral value.
  void set(MachineT &M, double V) const {
    if (Real)
      M.*Real = V;
    else
      M.*Count = static_cast<int>(V);
  }
};

/// A multicore CPU with SIMD/tensorized execution units.
struct CpuMachine {
  std::string Name;
  double FreqGHz;       ///< Core clock.
  int Cores;            ///< Physical cores usable by one inference.
  double LoadPortsPerCycle; ///< Vector loads issued per cycle per core.
  double ForkJoinCycles;    ///< Fixed cost of one parallel region.
  double PerChunkSchedCycles; ///< Scheduling cost per parallel chunk.
  double ICacheBodyBudgetBytes; ///< Unrolled body size before penalties.
  double ResidueBranchPenalty;  ///< Relative cost of a guarded body.
  double DramBytesPerCycle;     ///< Aggregate DRAM bandwidth / frequency.
  double L2BytesPerCore;        ///< Private-ish cache per core.
  /// SIMD fallback parameters (non-tensorized kernels).
  double SimdVectorBytes;   ///< Vector register width.
  double SimdPipes;         ///< Vector ALUs per core.
  /// Extra multiply-widen instructions per MAC when no dot instruction
  /// exists (the TVM-NEON baseline's handicap, paper Fig. 12).
  double WideningFactorNoDot;

  /// AWS c5.12xlarge: Intel Xeon Platinum 8275CL (Cascade Lake), 24 cores
  /// at 3.0 GHz, AVX-512 VNNI on two ports.
  static CpuMachine cascadeLake();

  /// AWS m6g.8xlarge: Graviton2 (Neoverse N1), 32 cores at 2.3 GHz,
  /// 128-bit NEON with the DOT extension.
  static CpuMachine graviton2();

  /// Every parameter except Name, in declaration order. Adding a member
  /// means adding its row here; the spec-file codec, machine overlays and
  /// cacheFingerprint all walk this list.
  static const std::vector<MachineField<CpuMachine>> &fields();

  /// Exact serialization of every latency-relevant parameter (name
  /// included). Kernel-cache salts use this so two machines that share a
  /// name but differ in any parameter never share cached latencies.
  std::string cacheFingerprint() const;
};

/// A CUDA GPU with per-SM tensor cores.
struct GpuMachine {
  std::string Name;
  double FreqGHz;
  int SMs;
  double WmmaPerCyclePerSM; ///< Aggregate tensor-core retirement per SM.
  /// Best-case wmma issue interval of a single warp (one warp occupies one
  /// scheduler, so several resident warps are needed to saturate the SM's
  /// tensor cores — the utilization gap split-K fills, paper §III.C).
  double WarpIssueCycles;
  double FmaPerCyclePerSM;  ///< fp32 FMA lanes (the no-TC path of Fig. 1).
  double KernelLaunchMicros;
  double SyncBaseCycles;   ///< Block-wide __syncthreads cost.
  double SyncPerSegmentCycles; ///< Additional cost per split-K segment.
  double RegsPerAccumTile; ///< Warp registers one accumulator tile holds.
  double RegsBase;         ///< Base warp register usage.
  double RegBudgetPerWarp; ///< Spill threshold (paper: p>2 overwhelms).
  double DramBytesPerCycle;
  /// Warps needed in flight to reach peak DRAM bandwidth (memory-level
  /// parallelism): low-occupancy bs=1 kernels cannot saturate HBM, which
  /// is the second thing split-K buys back.
  double WarpsForPeakBandwidth;
  double SharedBytesPerSM;

  /// AWS p3.2xlarge: Tesla V100-SXM2, 80 SMs at 1.53 GHz.
  static GpuMachine v100();

  /// Every parameter except Name; see CpuMachine::fields.
  static const std::vector<MachineField<GpuMachine>> &fields();

  /// Exact parameter serialization; see CpuMachine::cacheFingerprint.
  std::string cacheFingerprint() const;
};

} // namespace unit

#endif // UNIT_PERF_MACHINEMODEL_H
