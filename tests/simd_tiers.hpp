// SIMD tier helpers for the suites that pin every dispatch tier to one
// result: a guard that drops the set_simd_tier override when a test exits,
// pass or fail, and the tiers this host can execute.
#pragma once

#include <vector>

#include "common/cpu.hpp"

namespace ltefp {

struct TierGuard {
  ~TierGuard() { clear_simd_tier_override(); }
};

/// Every tier the host can actually execute, lowest first.
inline std::vector<SimdTier> executable_tiers() {
  std::vector<SimdTier> tiers = {SimdTier::kScalar};
  if (detected_simd_tier() >= SimdTier::kSse2) tiers.push_back(SimdTier::kSse2);
  if (detected_simd_tier() >= SimdTier::kAvx2) tiers.push_back(SimdTier::kAvx2);
  return tiers;
}

}  // namespace ltefp
