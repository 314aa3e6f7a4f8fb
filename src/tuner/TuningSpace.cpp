//===- tuner/TuningSpace.cpp -----------------------------------------------===//

#include "tuner/TuningSpace.h"

#include "support/StringUtils.h"

using namespace unit;

std::string CpuTuningPair::str() const {
  return formatStr("(parallel<%lld, unroll=%lld)",
                   static_cast<long long>(ParallelLimit),
                   static_cast<long long>(UnrollFactor));
}

const std::vector<CpuTuningPair> &unit::defaultCpuTuningPairs() {
  // Ordered by prior quality: the paper's default first, then nearby
  // refinements, then the long tail.
  // Unroll degrees follow the paper's "< 8 per loop" guidance (two sunk
  // loops give 16 total); parallel limits bracket the 3000 default.
  static const std::vector<CpuTuningPair> Pairs = {
      {3000, 8},  {3000, 16}, {3000, 4},  {6000, 8},   {1500, 8},
      {6000, 16}, {1500, 16}, {12000, 8}, {750, 8},    {6000, 4},
      {1500, 4},  {12000, 16}, {3000, 2}, {750, 16},   {12000, 4},
      {750, 4},   {3000, 1},  {24000, 8}, {24000, 16}, {1500, 2},
  };
  return Pairs;
}

std::string GpuTuningConfig::str() const {
  return formatStr("(p=%lld, splitK=%lld)", static_cast<long long>(P),
                   static_cast<long long>(SplitK));
}

const std::vector<GpuTuningConfig> &unit::defaultGpuTuningConfigs() {
  // Each split-K count with p = 2, 1, 4. p > 2 overwhelms the register
  // file (paper §VI.B), but the tuner is allowed to discover that itself.
  static const std::vector<GpuTuningConfig> Configs = {
      {2, 1},  {1, 1},  {4, 1},  {2, 2},  {1, 2},  {4, 2},  {2, 4},
      {1, 4},  {4, 4},  {2, 8},  {1, 8},  {4, 8},  {2, 16}, {1, 16},
      {4, 16}, {2, 32}, {1, 32}, {4, 32}, {2, 64}, {1, 64}, {4, 64},
  };
  return Configs;
}
