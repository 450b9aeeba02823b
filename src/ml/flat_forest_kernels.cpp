// Scalar and SSE2 tiers of the flat-forest traversal, plus tier selection.
// SSE2 is part of the x86-64 baseline ABI, so its lanes need no extra
// compile flags here; the AVX2 tier lives in flat_forest_kernels_avx2.cpp,
// built with -mavx2 and entered only when common/cpu reports the feature.
//
// Kernel shape (why it looks like this): a root-to-leaf walk is a serial
// load -> compare -> add recurrence of ~15 cycles per level, so one row at
// a time leaves the core idle on latency. The SSE2 kernel instead steps 16
// rows of the SAME tree level-synchronously as 16 macro-unrolled chains
// whose only live state is a 32-bit node id each — small enough to stay in
// registers. The chains are mutually independent, so the out-of-order core
// overlaps their loads and the loop runs at uop throughput, not chain
// latency. There is deliberately NO early-exit test inside the level loop:
// leaves self-loop (right = self, threshold = -inf), converged rows just
// re-select their leaf, and dropping the cross-chain "did anything move"
// reduction plus its branch measured faster than exiting at the deepest
// row of the group. Gather-based AVX2 variants were measured 2-4x slower
// than these scalar-compare chains on the target microarchitecture
// (vpgather is ~10 cycles per element there), which is why the wide tiers
// share this structure instead of widening the data path.
//
// Rows that do not fill a 16-row group (all of them, for a streaming batch
// of a row or two) get the same treatment turned sideways: one row through
// 8 trees at a time, 8 chains over different trees instead of different
// rows (traverse_tail_chains, shared by both wide tiers). On one-row calls
// through a 100-tree forest that measured 2.7x faster than walking the
// trees one after another (BM_RandomForestPredictSmall/1).
#include "ml/flat_forest_kernels.hpp"

#include <algorithm>

#if defined(__SSE2__)
#include <emmintrin.h>
#define LTEFP_FOREST_SSE2 1
#endif

#include "common/cpu.hpp"

namespace ltefp::ml {

namespace {

/// One row's root-to-leaf walk through one tree, stopping at the leaf —
/// the latency-bound shape every tier falls back to for trees deeper than
/// kMaxChainLevels.
std::int32_t walk_row(const TraverseArgs& a, std::size_t t, std::size_t k) {
  std::int32_t n = a.roots[t];
  const std::int32_t lv = a.levels[t];
  for (std::int32_t lvl = 0; lvl < lv; ++lvl) {
    const std::uint64_t m = static_cast<std::uint64_t>(a.meta[n]);
    const std::size_t column = static_cast<std::size_t>(m & 0xFFFFFFFFu);
    const std::int32_t right = static_cast<std::int32_t>(m >> 32);
    const std::int32_t next =
        right - static_cast<std::int32_t>(a.tile[column * kTileRows + k] <= a.threshold[n]);
    if (next == n) break;  // self-loop: the leaf was reached
    n = next;
  }
  return n;
}

/// Trees one tail chain group steps together. Eight node ids plus the
/// arena, tile-row and group pointers fit the x86-64 register file; a
/// 16-tree group measured ~10% slower on one-row calls.
constexpr std::size_t kTailTrees = 8;

// One level-step of tail chain i: tree group[i], batch row k (`row` =
// tile + k). Plain C++ — the bool of x <= threshold folds into the
// right-child id exactly as in the row-chain kernels.
#define LTEFP_TC_DECL(i) std::int32_t n##i = a.roots[group[i]];
#define LTEFP_TC_STEP(i)                                                       \
  {                                                                            \
    const std::uint64_t m = static_cast<std::uint64_t>(meta[n##i]);            \
    n##i = static_cast<std::int32_t>(m >> 32) -                                \
           static_cast<std::int32_t>(                                          \
               row[static_cast<std::size_t>(m & 0xFFFFFFFFu) * kTileRows] <=   \
               thr[n##i]);                                                     \
  }
#define LTEFP_TC_OUT(i) a.node_out[group[i] * kTileRows + k] = n##i;
#define LTEFP_TC_8(M) M(0) M(1) M(2) M(3) M(4) M(5) M(6) M(7)

/// Routes batch row k through the kTailTrees trees listed in `group`,
/// level-synchronously for `levels` steps (the deepest tree of the group;
/// shallower trees self-loop on their leaves).
void chain_tree_group(const TraverseArgs& a, const std::size_t* group,
                      std::int32_t levels, std::size_t k) {
  const std::int64_t* meta = a.meta;
  const double* thr = a.threshold;
  const double* row = a.tile + k;
  LTEFP_TC_8(LTEFP_TC_DECL)
  for (std::int32_t lvl = 0; lvl < levels; ++lvl) {
    LTEFP_TC_8(LTEFP_TC_STEP)
  }
  LTEFP_TC_8(LTEFP_TC_OUT)
}

#undef LTEFP_TC_DECL
#undef LTEFP_TC_STEP
#undef LTEFP_TC_OUT
#undef LTEFP_TC_8

}  // namespace

void traverse_scalar(const TraverseArgs& a) {
  for (std::size_t t = 0; t < a.tree_count; ++t) {
    std::int32_t* out = a.node_out + t * kTileRows;
    for (std::size_t k = a.lo; k < a.count; ++k) out[k] = walk_row(a, t, k);
  }
}

void traverse_tail_chains(const TraverseArgs& a, std::size_t tail_lo) {
  for (std::size_t t = 0; t < a.tree_count; ++t) {
    if (a.levels[t] <= kMaxChainLevels) continue;
    std::int32_t* out = a.node_out + t * kTileRows;
    for (std::size_t k = a.lo; k < a.count; ++k) out[k] = walk_row(a, t, k);
  }
  std::size_t group[kTailTrees];
  for (std::size_t k = tail_lo; k < a.count; ++k) {
    std::size_t filled = 0;
    std::int32_t levels = 0;
    for (std::size_t t = 0; t < a.tree_count; ++t) {
      if (a.levels[t] > kMaxChainLevels) continue;
      group[filled++] = t;
      levels = std::max(levels, a.levels[t]);
      if (filled == kTailTrees) {
        chain_tree_group(a, group, levels, k);
        filled = 0;
        levels = 0;
      }
    }
    if (filled > 0) {
      // Pad the last group with copies of its last tree: a duplicate chain
      // writes the same leaf id into the same slot.
      for (std::size_t g = filled; g < kTailTrees; ++g) group[g] = group[filled - 1];
      chain_tree_group(a, group, levels, k);
    }
  }
}

namespace {

#if LTEFP_FOREST_SSE2

// One level-step of chain i, rows based at batch row k. _mm_cmple_sd keeps
// the exact x <= threshold predicate (NaN -> right) and its 0/-1 mask adds
// straight into the right-child id — no setcc/zero-extend pair, and the
// threshold load folds into the compare. The row index k + i is a
// compile-time offset into the column-major tile, so the chain carries no
// pointer, only its node id.
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

void traverse_sse2(const TraverseArgs& a) {
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

#endif  // LTEFP_FOREST_SSE2

}  // namespace

ForestKernels select_forest_kernels() {
  ForestKernels k{&traverse_scalar};
  switch (simd_tier()) {
    case SimdTier::kScalar:
      break;
    case SimdTier::kSse2:
#if LTEFP_FOREST_SSE2
      k.traverse = &traverse_sse2;
#endif
      break;
    case SimdTier::kAvx2:
      // kAvx2 is only ever reported on hosts that execute AVX2; if the
      // AVX2 TU was built without the ISA it forwards to scalar, which is
      // still correct (and unreachable on such builds anyway).
      k.traverse = &traverse_avx2;
      break;
  }
  return k;
}

}  // namespace ltefp::ml
