// Scalar tier of the split-search bucketing kernel, plus tier selection.
// The AVX2 tier lives in split_kernels_avx2.cpp.
#include "ml/split_kernels.hpp"

#include "common/cpu.hpp"

namespace ltefp::ml {

void bucket_scalar(const BucketArgs& a) {
  const double* sorted = a.sorted;
  for (std::size_t i = 0; i < a.n; ++i) {
    const double v = a.values[i];
    std::size_t bucket = 0;
    for (std::size_t step = a.padded / 2; step > 0; step /= 2) {
      bucket += step * static_cast<std::size_t>(!(v <= sorted[bucket + step - 1]));
    }
    ++a.hist[bucket * a.classes + static_cast<std::size_t>(a.labels[i])];
  }
}

BucketFn select_bucket_kernel() {
  return simd_tier() == SimdTier::kAvx2 ? &bucket_avx2 : &bucket_scalar;
}

}  // namespace ltefp::ml
