//===- tuner/TuningSpace.h - Tuning parameter spaces -----------------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tuning spaces of paper §III.C/§IV.B. On CPU a candidate is a
/// "tuning pair": the parallel fuse limit (first breaking point) and the
/// unroll factor (second breaking point) of Fig. 7. On GPU a candidate is
/// the outer-product accumulation degree `p` of Fig. 6 plus the split-K
/// segment count; dimension fusion is a graph-level choice the executor
/// enumerates alongside.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_TUNER_TUNINGSPACE_H
#define UNIT_TUNER_TUNINGSPACE_H

#include <cstdint>
#include <string>
#include <vector>

namespace unit {

/// One CPU candidate (paper §VI.B "tuning pairs").
struct CpuTuningPair {
  int64_t ParallelLimit; ///< Fuse outer loops while extent stays below this.
  int64_t UnrollFactor;  ///< Data-parallel tiles sunk below the reduction.

  std::string str() const;
};

/// The ordered CPU candidate list. The first entry is the (3000, 8)
/// default the paper reports optimal for more than half the kernels; the
/// rest are ordered so that ">95% of kernels reach optimum within the
/// first 8 pairs" has a chance to hold. Built once.
const std::vector<CpuTuningPair> &defaultCpuTuningPairs();

/// One GPU candidate.
struct GpuTuningConfig {
  int64_t P;          ///< Outer-product accumulation degree (Fig. 6).
  int64_t SplitK;     ///< Concurrent reduction segments (1 = off).

  std::string str() const;
};

/// The ordered GPU candidate list; the first entry is the generic p=2,
/// no-split configuration of paper §VI.B. Built once.
const std::vector<GpuTuningConfig> &defaultGpuTuningConfigs();

} // namespace unit

#endif // UNIT_TUNER_TUNINGSPACE_H
