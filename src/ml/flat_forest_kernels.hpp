// Dispatch interface for the flat-forest traversal kernels.
//
// One call routes a tile of batch rows through one tree: starting at
// `root`, each of `levels` branch-free steps unpacks meta[n] into a
// feature column (low 32 bits) and a RIGHT-child arena id (high 32 bits)
// and evaluates
//
//   next = right - (x[column] <= threshold[n])
//
// i.e. the bool folds straight into the child index: sibling-adjacent BFS
// numbering guarantees left = right - 1. Leaves store right = self and
// threshold = -inf, so the comparison is false for every value — finite,
// infinite or NaN — and a row that reached its leaf keeps re-selecting it
// ("self-loop") until the level loop runs out. That makes the step safe to
// run unconditionally for `levels` iterations with no per-row exit test,
// which is what the wide kernels do. NaN features compare false against
// any threshold and take the right child at every tier — the same branch
// the pointer-tree walk takes.
//
// The tile is COLUMN-major with a fixed row capacity: feature f of batch
// row k lives at tile[f * kTileRows + k]. Keeping the row index a
// compile-time constant per unrolled chain means a kernel's only live
// per-row state is one 32-bit node id, which is what lets 16 independent
// root-to-leaf chains stay in registers (the row-major variant spilled a
// pointer per chain and ran ~25% slower).
//
// Rows are mutually independent and the step arithmetic is one double
// comparison plus integer adds, so every tier produces the same leaf ids
// bit for bit. Implementations: flat_forest_kernels.cpp (scalar + SSE2),
// flat_forest_kernels_avx2.cpp (VEX-encoded, compiled with -mavx2,
// dispatched only when common/cpu reports the feature at run time).
#pragma once

#include <cstddef>
#include <cstdint>

namespace ltefp::ml {

/// Fixed tile row capacity. Batches never exceed this; partial batches
/// simply leave the upper rows untraversed (lo/count bound the work).
inline constexpr std::size_t kTileRows = 64;

/// Chain kernels run every level unconditionally (no early exit), so for
/// pathologically deep trees the per-row scalar walk — which stops at the
/// leaf — is the better engine. Kernels delegate above this depth.
inline constexpr std::int32_t kMaxChainLevels = 32;

/// One whole-forest traversal of a tile: every tree over batch rows
/// [lo, count). The tree loop lives INSIDE the kernel so the arena and
/// tile pointers stay in registers across trees and the out-of-order core
/// overlaps the last chains of tree t with the first chains of tree t+1 —
/// per-tree entry through the dispatch pointer measured ~30% slower.
struct TraverseArgs {
  const std::int64_t* meta = nullptr;  // low 32: feature column; high 32: right child
  const double* threshold = nullptr;   // per node; -inf marks a leaf
  const double* tile = nullptr;  // column-major batch features, kTileRows capacity
  std::size_t lo = 0;            // first batch row to fill
  std::size_t count = 0;         // one past the last batch row
  const std::int32_t* roots = nullptr;   // per tree: arena id of the root
  const std::int32_t* levels = nullptr;  // per tree: depth = steps to any leaf
  std::size_t tree_count = 0;
  std::int32_t* node_out = nullptr;  // leaf id of tree t, row k at [t*kTileRows+k]
};

using TraverseFn = void (*)(const TraverseArgs&);

struct ForestKernels {
  TraverseFn traverse = nullptr;
};

/// Resolves the kernel for the current common/cpu tier. Called once per
/// predict_rows invocation, so set_simd_tier takes effect on the next call.
ForestKernels select_forest_kernels();

/// Portable scalar entry point — the reference tier: one row at a time
/// through one tree at a time, each walk stopping at its leaf.
void traverse_scalar(const TraverseArgs& args);

/// The part of a tile the wide kernels' 16-row chains do not cover, in
/// plain C++ shared by the SSE2 and AVX2 tiers:
///  - rows [tail_lo, count), fewer than one 16-row group, run as
///    independent chains across TREES: one row through 8 trees at a time,
///    level-synchronous over the deepest tree of the group, leaves
///    self-looping. A single-row walk is a chain of dependent loads; 8
///    trees' walks overlap in the out-of-order core. This is the shape of
///    a streaming batch, ~1.5 rows per call.
///  - every row [lo, count) of a tree deeper than kMaxChainLevels, by the
///    per-row walk (the wide kernels skip such trees).
/// Every (tree, row) pair still lands on the same leaf id.
void traverse_tail_chains(const TraverseArgs& args, std::size_t tail_lo);

/// AVX2 entry point (flat_forest_kernels_avx2.cpp). When that TU was built
/// without AVX2 support (non-x86 toolchain), it forwards to scalar — but
/// then common/cpu never reports kAvx2, so it is not dispatched anyway.
void traverse_avx2(const TraverseArgs& args);

}  // namespace ltefp::ml
