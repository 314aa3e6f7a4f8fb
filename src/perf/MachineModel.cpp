//===- perf/MachineModel.cpp -----------------------------------------------===//

#include "perf/MachineModel.h"

#include <cstdio>

using namespace unit;

namespace {
/// The name, then every field-table parameter in exact hex-float form.
template <typename MachineT> std::string fingerprint(const MachineT &M) {
  std::string Out = M.Name;
  for (const MachineField<MachineT> &F : MachineT::fields()) {
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), ",%a", F.get(M));
    Out += Buf;
  }
  return Out;
}
} // namespace

CpuMachine CpuMachine::cascadeLake() {
  CpuMachine M;
  M.Name = "c5.12xlarge (Cascade Lake 8275CL)";
  M.FreqGHz = 3.0;
  M.Cores = 24;
  M.LoadPortsPerCycle = 2.0;
  M.ForkJoinCycles = 15000.0;      // ~5 us to wake a thread pool.
  M.PerChunkSchedCycles = 150.0;
  M.ICacheBodyBudgetBytes = 8192.0; // Comfortable DSB/L1I footprint.
  M.ResidueBranchPenalty = 0.35;    // Guarded store costs ~1.35x.
  M.DramBytesPerCycle = 40.0;       // ~120 GB/s at 3 GHz.
  M.L2BytesPerCore = 1024.0 * 1024.0;
  M.SimdVectorBytes = 64.0;         // AVX-512.
  M.SimdPipes = 2.0;
  M.WideningFactorNoDot = 3.0;      // pmaddubsw+pmaddwd+paddd chains.
  return M;
}

CpuMachine CpuMachine::graviton2() {
  CpuMachine M;
  M.Name = "m6g.8xlarge (Graviton2 Neoverse N1)";
  M.FreqGHz = 2.3;
  M.Cores = 32;
  M.LoadPortsPerCycle = 2.0;
  M.ForkJoinCycles = 12000.0;
  M.PerChunkSchedCycles = 150.0;
  M.ICacheBodyBudgetBytes = 4096.0;
  M.ResidueBranchPenalty = 0.35;
  M.DramBytesPerCycle = 45.0;       // ~100 GB/s at 2.3 GHz.
  M.L2BytesPerCore = 512.0 * 1024.0;
  M.SimdVectorBytes = 16.0;         // 128-bit NEON.
  M.SimdPipes = 2.0;
  // Without DOT, an int8 MAC needs smull/smlal/saddlp widening chains —
  // roughly 8x fewer sustained MACs per cycle than the DOT pipeline
  // (paper Fig. 12's TVM-NEON baseline, beaten by >10x on some models).
  M.WideningFactorNoDot = 8.0;
  return M;
}

const std::vector<MachineField<CpuMachine>> &CpuMachine::fields() {
  static const std::vector<MachineField<CpuMachine>> Fields = {
      {"freq_ghz", &CpuMachine::FreqGHz},
      {"cores", &CpuMachine::Cores},
      {"load_ports_per_cycle", &CpuMachine::LoadPortsPerCycle},
      {"fork_join_cycles", &CpuMachine::ForkJoinCycles},
      {"per_chunk_sched_cycles", &CpuMachine::PerChunkSchedCycles},
      {"icache_body_budget_bytes", &CpuMachine::ICacheBodyBudgetBytes},
      {"residue_branch_penalty", &CpuMachine::ResidueBranchPenalty},
      {"dram_bytes_per_cycle", &CpuMachine::DramBytesPerCycle},
      {"l2_bytes_per_core", &CpuMachine::L2BytesPerCore},
      {"simd_vector_bytes", &CpuMachine::SimdVectorBytes},
      {"simd_pipes", &CpuMachine::SimdPipes},
      {"widening_factor_no_dot", &CpuMachine::WideningFactorNoDot},
  };
  return Fields;
}

std::string CpuMachine::cacheFingerprint() const {
  return fingerprint(*this);
}

GpuMachine GpuMachine::v100() {
  GpuMachine M;
  M.Name = "p3.2xlarge (Tesla V100-SXM2)";
  M.FreqGHz = 1.53;
  M.SMs = 80;
  // 8 tensor cores/SM retire one warp-level m16n16k16 every ~4 cycles in
  // aggregate; a single warp can issue at best one every ~16 cycles, so
  // ~4 resident warps saturate an SM.
  M.WmmaPerCyclePerSM = 0.25;
  M.WarpIssueCycles = 16.0;
  M.FmaPerCyclePerSM = 64.0;        // fp32 CUDA cores.
  M.KernelLaunchMicros = 1.0;
  M.SyncBaseCycles = 200.0;
  M.SyncPerSegmentCycles = 20.0;
  M.RegsPerAccumTile = 256.0;       // One 16x16 fp32 fragment per warp.
  M.RegsBase = 512.0;
  M.RegBudgetPerWarp = 4096.0;      // Past this, spills (p=4 territory).
  M.DramBytesPerCycle = 580.0;      // ~900 GB/s HBM2 at 1.53 GHz.
  M.WarpsForPeakBandwidth = 160.0;  // ~2 warps per SM keep HBM busy.
  M.SharedBytesPerSM = 96.0 * 1024.0;
  return M;
}

const std::vector<MachineField<GpuMachine>> &GpuMachine::fields() {
  static const std::vector<MachineField<GpuMachine>> Fields = {
      {"freq_ghz", &GpuMachine::FreqGHz},
      {"sms", &GpuMachine::SMs},
      {"wmma_per_cycle_per_sm", &GpuMachine::WmmaPerCyclePerSM},
      {"warp_issue_cycles", &GpuMachine::WarpIssueCycles},
      {"fma_per_cycle_per_sm", &GpuMachine::FmaPerCyclePerSM},
      {"kernel_launch_micros", &GpuMachine::KernelLaunchMicros},
      {"sync_base_cycles", &GpuMachine::SyncBaseCycles},
      {"sync_per_segment_cycles", &GpuMachine::SyncPerSegmentCycles},
      {"regs_per_accum_tile", &GpuMachine::RegsPerAccumTile},
      {"regs_base", &GpuMachine::RegsBase},
      {"reg_budget_per_warp", &GpuMachine::RegBudgetPerWarp},
      {"dram_bytes_per_cycle", &GpuMachine::DramBytesPerCycle},
      {"warps_for_peak_bandwidth", &GpuMachine::WarpsForPeakBandwidth},
      {"shared_bytes_per_sm", &GpuMachine::SharedBytesPerSM},
  };
  return Fields;
}

std::string GpuMachine::cacheFingerprint() const {
  return fingerprint(*this);
}
