// Dispatch interface for the tree trainer's split-search bucketing kernel.
//
// DecisionTree::build scores every candidate threshold of a tried feature
// in one pass over the node: each value is put in a bucket by where it
// falls among the node's ORDERED candidates (sorted by threshold,
// non-decreasing, NaN-free), and a bucket-by-class histogram is counted.
// A value goes left of the rank-r candidate exactly when its bucket is
// <= r, so a running sum over the buckets in rank order gives each
// candidate's left class counts.
//
// For a non-NaN value v the bucket is
//
//   #{ordered candidates c : !(v <= c)}  =  #{c : c < v}
//
// and both tiers compute exactly that:
//  - scalar (the reference tier): a branchless binary search over the
//    sorted array padded with +inf to a power of two, whose +inf tail no
//    value exceeds;
//  - AVX2: a compare-count, four values per compare against each
//    broadcast candidate, the all-ones compare masks subtracted from
//    64-bit lane counters.
// The two agree bit for bit because the array is non-decreasing and
// NaN-free (the trainer keeps NaN candidates out of it), so the first
// index whose candidate is >= v is also the number of candidates below v.
// A NaN value compares false against everything: it lands in bucket
// padded - 1 (scalar) or `ordered` (AVX2). Both are >= `ordered`, so the
// sweep, which stops at the last ordered rank, never counts a NaN left —
// NaN goes right, as in prediction — and both are inside `hist`.
//
// SSE2 hosts take the scalar tier: two lanes per compare do not beat the
// search. Implementations: split_kernels.cpp (scalar + selection),
// split_kernels_avx2.cpp (compiled with -mavx2, dispatched only when
// common/cpu reports the feature at run time).
#pragma once

#include <cstddef>
#include <cstdint>

namespace ltefp::ml {

struct BucketArgs {
  const double* values = nullptr;  // one tried feature's node values
  const int* labels = nullptr;     // their class labels, same order
  std::size_t n = 0;
  const double* sorted = nullptr;  // ordered candidates, then +inf up to `padded`
  std::size_t ordered = 0;         // ordered candidate count
  std::size_t padded = 0;          // power of two > ordered
  std::uint32_t* hist = nullptr;   // padded x classes counts, added to
  std::size_t classes = 0;
};

using BucketFn = void (*)(const BucketArgs&);

/// Resolves the kernel for the current common/cpu tier. Called once per
/// DecisionTree::fit, so set_simd_tier takes effect on the next fit.
BucketFn select_bucket_kernel();

/// Portable scalar entry point: the branchless binary search.
void bucket_scalar(const BucketArgs& args);

/// AVX2 entry point (split_kernels_avx2.cpp). When that TU was built
/// without AVX2 support it forwards to scalar; common/cpu never reports
/// kAvx2 on such a build, so it is not dispatched anyway.
void bucket_avx2(const BucketArgs& args);

}  // namespace ltefp::ml
