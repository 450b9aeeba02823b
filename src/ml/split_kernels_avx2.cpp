// AVX2 tier of the split-search bucketing kernel: a compare-count.
//
// This TU is compiled with -mavx2 (see src/ml/CMakeLists.txt) and its
// entry point is only dispatched through the common/cpu shim when the CPU
// reports AVX2 at run time.
//
// The binary search of the scalar tier is five dependent load-compare-add
// steps per value. Here each ordered candidate is broadcast once and
// compared against 16 values (four registers, four values per compare);
// !(v <= c) yields an all-ones lane, i.e. -1, so subtracting the mask
// counts the candidates below each value. No step depends on the one
// before it except through the counters, so the loop runs at compare
// throughput. The 24 candidates a node draws cost 24 compares per four
// values.
#include "ml/split_kernels.hpp"

#include "common/cpu.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace ltefp::ml {

#if defined(__AVX2__)

namespace {

/// Adds the candidates below each lane of `v` to the lane's counter.
inline __m256i count_below(__m256i count, __m256d v, __m256d candidate) {
  return _mm256_sub_epi64(count, _mm256_castpd_si256(_mm256_cmp_pd(v, candidate, _CMP_NLE_UQ)));
}

}  // namespace

void bucket_avx2(const BucketArgs& a) {
  const double* values = a.values;
  const double* sorted = a.sorted;
  const std::size_t ordered = a.ordered;
  alignas(32) std::int64_t bucket[16];
  std::size_t i = 0;
  for (; i + 16 <= a.n; i += 16) {
    const __m256d v0 = _mm256_loadu_pd(values + i);
    const __m256d v1 = _mm256_loadu_pd(values + i + 4);
    const __m256d v2 = _mm256_loadu_pd(values + i + 8);
    const __m256d v3 = _mm256_loadu_pd(values + i + 12);
    __m256i c0 = _mm256_setzero_si256();
    __m256i c1 = _mm256_setzero_si256();
    __m256i c2 = _mm256_setzero_si256();
    __m256i c3 = _mm256_setzero_si256();
    for (std::size_t r = 0; r < ordered; ++r) {
      const __m256d t = _mm256_broadcast_sd(sorted + r);
      c0 = count_below(c0, v0, t);
      c1 = count_below(c1, v1, t);
      c2 = count_below(c2, v2, t);
      c3 = count_below(c3, v3, t);
    }
    _mm256_store_si256(reinterpret_cast<__m256i*>(bucket), c0);
    _mm256_store_si256(reinterpret_cast<__m256i*>(bucket + 4), c1);
    _mm256_store_si256(reinterpret_cast<__m256i*>(bucket + 8), c2);
    _mm256_store_si256(reinterpret_cast<__m256i*>(bucket + 12), c3);
    for (std::size_t k = 0; k < 16; ++k) {
      ++a.hist[static_cast<std::size_t>(bucket[k]) * a.classes +
               static_cast<std::size_t>(a.labels[i + k])];
    }
  }
  for (; i + 4 <= a.n; i += 4) {
    const __m256d v = _mm256_loadu_pd(values + i);
    __m256i c = _mm256_setzero_si256();
    for (std::size_t r = 0; r < ordered; ++r) c = count_below(c, v, _mm256_broadcast_sd(sorted + r));
    _mm256_store_si256(reinterpret_cast<__m256i*>(bucket), c);
    for (std::size_t k = 0; k < 4; ++k) {
      ++a.hist[static_cast<std::size_t>(bucket[k]) * a.classes +
               static_cast<std::size_t>(a.labels[i + k])];
    }
  }
  for (; i < a.n; ++i) {
    const double v = values[i];
    std::size_t below = 0;
    for (std::size_t r = 0; r < ordered; ++r) below += static_cast<std::size_t>(!(v <= sorted[r]));
    ++a.hist[below * a.classes + static_cast<std::size_t>(a.labels[i])];
  }
}

#else

// Toolchain without AVX2 (non-x86): common/cpu never reports kAvx2 there,
// so this is unreachable; forwarding keeps it correct regardless.
void bucket_avx2(const BucketArgs& args) { bucket_scalar(args); }

#endif

}  // namespace ltefp::ml
