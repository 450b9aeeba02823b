// AVX2 tier of the flat-forest traversal.
//
// This TU is compiled with -mavx2 (see src/ml/CMakeLists.txt) and its
// entry point is only ever dispatched through the common/cpu shim when the
// CPU reports AVX2 at run time.
//
// The kernel mirrors the SSE2 chain design rather than widening the data
// path: 16 rows of one tree stepped level-synchronously as independent
// macro-unrolled chains, each chain's only live state a 32-bit node id,
// with the x <= threshold mask folded into the right-child id. That choice
// is measured, not aesthetic — gather-based AVX2 variants (packed meta,
// threshold and tile-value vpgathers with sibling-adjacent child math)
// ran 2-4x SLOWER than scalar-compare chains on the target
// microarchitecture, where vpgather retires ~10 cycles per element. Tree
// traversal is bound by dependent-load latency across a few dozen hot
// cache lines, and 16 overlapped scalar chains already saturate uop issue;
// 4-wide lanes only couple independent chains to the slowest lane. What
// AVX2 buys here is the VEX encoding (non-destructive three-operand forms,
// no transition penalties next to other AVX2 code); the genuinely
// data-parallel AVX2 win lives in the DTW diagonal kernel
// (dtw/kernels_avx2.cpp). Bit-identity: the predicate is the same
// _mm_cmple_sd as the SSE2 tier, so leaf ids match all tiers bit for bit.
#include "ml/flat_forest_kernels.hpp"

#include "common/cpu.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace ltefp::ml {

#if defined(__AVX2__)

namespace {

#define LTEFP_CH_DECL(i) std::int32_t n##i = root;
#define LTEFP_CH_STEP(i)                                                      \
  {                                                                           \
    const std::uint64_t m = static_cast<std::uint64_t>(meta[n##i]);           \
    const __m128d v = _mm_load_sd(                                            \
        tile + static_cast<std::size_t>(m & 0xFFFFFFFFu) * kTileRows + k + i); \
    const __m128d le = _mm_cmple_sd(v, _mm_load_sd(thr + n##i));              \
    n##i = static_cast<std::int32_t>(m >> 32) +                               \
           _mm_cvtsi128_si32(_mm_castpd_si128(le));                           \
  }
#define LTEFP_CH_OUT(i) out[k + i] = n##i;
#define LTEFP_CH_16(M)                                                        \
  M(0) M(1) M(2) M(3) M(4) M(5) M(6) M(7)                                     \
  M(8) M(9) M(10) M(11) M(12) M(13) M(14) M(15)

}  // namespace

void traverse_avx2(const TraverseArgs& a) {
  const std::int64_t* meta = a.meta;
  const double* thr = a.threshold;
  const double* tile = a.tile;
  const std::size_t groups_end = a.lo + (a.count - a.lo) / 16 * 16;
  for (std::size_t t = 0; t < a.tree_count; ++t) {
    const std::int32_t lv = a.levels[t];
    if (lv > kMaxChainLevels) continue;  // walked per row by the tail pass
    const std::int32_t root = a.roots[t];
    std::int32_t* out = a.node_out + t * kTileRows;
    for (std::size_t k = a.lo; k < groups_end; k += 16) {
      LTEFP_CH_16(LTEFP_CH_DECL)
      for (std::int32_t lvl = 0; lvl < lv; ++lvl) {
        LTEFP_CH_16(LTEFP_CH_STEP)
      }
      LTEFP_CH_16(LTEFP_CH_OUT)
    }
  }
  traverse_tail_chains(a, groups_end);
}

#undef LTEFP_CH_DECL
#undef LTEFP_CH_STEP
#undef LTEFP_CH_OUT
#undef LTEFP_CH_16

#else  // !defined(__AVX2__)

// Toolchain without AVX2 (non-x86): common/cpu never reports kAvx2 there,
// so this forward exists only to satisfy the link.
void traverse_avx2(const TraverseArgs& args) { traverse_scalar(args); }

#endif

}  // namespace ltefp::ml
