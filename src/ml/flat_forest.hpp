// Flattened struct-of-arrays execution engine for trained random forests.
//
// The pointer-tree representation (DecisionTree::Node, one heap
// vector<double> per node) is what training wants; batch inference wants
// the opposite: all trees of a forest flattened into ONE contiguous arena
// of parallel arrays. Nodes are renumbered breadth-first so SIBLINGS ARE
// ADJACENT (right child = left child + 1), which packs a node's entire
// branch decision into two words:
//
//   meta[n]       int64   low 32: feature column to read (0 for leaves);
//                         high 32: RIGHT-child arena id (left = right - 1)
//   threshold[n]  double  go left when x <= threshold (leaves: -inf)
//   proba_off[n]  int32   offset of the leaf's class votes in leaf_proba
//
// plus per-tree root ids and depths. Prediction tiles a row batch into a
// COLUMN-major tile (feature f of batch row k at tile[f*kTileRows+k]) and
// runs the branch-free step
//
//   next = right[n] - (x[column[n]] <= threshold[n])
//
// which SELF-LOOPS on leaves: right = self and threshold = -inf make the
// comparison false for every value, finite or NaN (NaN features compare
// false against any threshold and take the right child at every tier, the
// same branch the pointer walk takes). A level-synchronous sweep of
// `levels` (= tree depth) such steps lands every row of a batch at its
// leaf with no per-row control flow — the shape that lets the kernels run
// 16 independent register-resident chains per tree, or, for the rows left
// over, one row through 8 trees at once (see flat_forest_kernels.hpp;
// scalar, SSE2 and AVX2 tiers dispatched at run time through common/cpu).
//
// The engine is BIT-IDENTICAL to the per-sample pointer-tree walk
// (RandomForest::predict on each row), pinned by tests/test_flat_forest:
//  - the traversal step is the same comparison on the same doubles, so
//    every row reaches the same leaf;
//  - per (row, class) the vote accumulator receives the same additions in
//    the same tree order 0..T-1;
//  - the sum is divided by the tree count BEFORE the argmax (division can
//    round two distinct sums onto the same probability, and the winner is
//    the FIRST maximum, exactly std::max_element).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "features/matrix.hpp"
#include "ml/decision_tree.hpp"

namespace ltefp::ml {

class FlatForest {
 public:
  FlatForest() = default;

  /// Flattens trained trees into the arena (unreachable exported nodes are
  /// dropped). Throws std::invalid_argument when the forest is empty, a
  /// tree is untrained or not a tree (shared subtrees, cycles), or the
  /// arena would exceed the int32 node-id space.
  static FlatForest build(std::span<const DecisionTree> trees, int num_classes);

  bool trained() const { return !root_.empty(); }
  int tree_count() const { return static_cast<int>(root_.size()); }
  int class_count() const { return num_classes_; }
  std::size_t node_count() const { return meta_.size(); }
  /// Highest feature index any split reads (-1 when all trees are leaves).
  std::int32_t max_feature() const { return max_feature_; }

  /// Batch prediction straight off the columnar matrix; bit-identical to
  /// the per-sample pointer walk at every dispatch tier and thread count.
  /// The tile and leaf buffers are per-thread scratch reused across calls.
  std::vector<int> predict_rows(const features::DatasetMatrix& data,
                                std::span<const std::uint32_t> rows) const;

 private:
  // Arena: parallel arrays over all (reachable) nodes of all trees.
  std::vector<std::int64_t> meta_;   // low 32: feature column; high 32: right child
  std::vector<double> threshold_;
  std::vector<std::int32_t> proba_off_;  // into leaf_proba_ (leaves only)
  std::vector<double> leaf_proba_;       // class votes, class_count per leaf
  std::vector<std::int32_t> root_;       // per tree: arena id of the root
  std::vector<std::int32_t> levels_;     // per tree: depth = steps to any leaf
  int num_classes_ = 0;
  std::int32_t max_feature_ = -1;
};

}  // namespace ltefp::ml
