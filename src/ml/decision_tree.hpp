// CART decision tree (Gini impurity) — the base learner of the Random
// Forest the paper selects for its classifier (Table VIII: trees = 100).
//
// Split search samples candidate thresholds from the node's observed
// values (histogram-style) rather than scoring every midpoint; with
// per-node feature subsampling (mtry) this is the standard random-forest
// recipe and keeps training linear in node size.
//
// The trainer is columnar and presorted (sklearn/XGBoost-exact style):
// each feature column of the DatasetMatrix is argsorted once per dataset,
// each tree expands that order through its bootstrap multiplicities once,
// and the sorted per-feature index partitions are maintained down the tree
// with stable partitions. Candidate thresholds are still drawn from the
// node values with the same RNG stream as the original per-candidate
// rescan trainer, but all candidates of a feature are scored in ONE
// incremental class-count sweep over the node's sorted order. Split
// decisions, thresholds, tie order, and the RNG stream are unchanged, so
// trained trees are bit-identical to the historical AoS trainer (pinned
// by tests/test_columnar_ml.cpp against a reference implementation).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "features/dataset.hpp"
#include "features/matrix.hpp"

namespace ltefp::ml {

struct TreeConfig {
  int max_depth = 18;
  int min_samples_split = 4;
  int min_samples_leaf = 2;
  /// Features tried per node; 0 = all, otherwise typically sqrt(dims).
  int mtry = 0;
  /// Candidate thresholds sampled per tried feature.
  int threshold_candidates = 24;
};

class DecisionTree {
 public:
  explicit DecisionTree(TreeConfig config = {}, std::uint64_t seed = 1);

  /// Fits on the subset of `data` given by `indices` (duplicates allowed —
  /// this is how the forest passes bootstrap resamples). Row order of
  /// `indices` is significant: candidate thresholds are drawn from node
  /// positions.
  void fit(const features::DatasetMatrix& data, std::span<const std::size_t> indices,
           int num_classes);

  /// Fits on every row of the matrix.
  void fit(const features::DatasetMatrix& data, int num_classes);

  /// AoS convenience overloads: transpose once, then fit columnar.
  void fit(const features::Dataset& data, std::span<const std::size_t> indices,
           int num_classes);
  void fit(const features::Dataset& data, int num_classes);

  int predict(const features::FeatureVector& x) const;
  const std::vector<double>& predict_proba(const features::FeatureVector& x) const;

  /// Columnar traversal: leaf distribution for one matrix row.
  const std::vector<double>& predict_proba_row(const features::DatasetMatrix& data,
                                               std::size_t row) const;

  int node_count() const { return static_cast<int>(nodes_.size()); }
  int depth() const;
  bool trained() const { return !nodes_.empty(); }

  /// Flat node view for persistence (ml/serialize.hpp). feature == -1
  /// marks a leaf, whose `proba` holds the class distribution.
  struct ExportedNode {
    int feature = -1;
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    std::vector<double> proba;
  };
  std::vector<ExportedNode> export_nodes() const;

  /// Rebuilds a tree from exported nodes (index 0 is the root). Throws
  /// std::invalid_argument on inconsistent input, including nodes that do
  /// not form one tree (a node reached twice or never).
  static DecisionTree from_nodes(std::vector<ExportedNode> nodes, int num_classes);

 private:
  struct Node {
    int feature = -1;        // -1 = leaf
    double threshold = 0.0;  // go left when x[feature] <= threshold
    int left = -1;
    int right = -1;
    int depth = 0;
    std::vector<double> proba;  // leaf class distribution
  };

  int build(std::size_t begin, std::size_t end, int depth);
  const Node& leaf_for(const features::FeatureVector& x) const;

  TreeConfig config_;
  Rng rng_;
  std::vector<Node> nodes_;
  int num_classes_ = 0;

  // --- fit-scoped state (valid only inside fit/build) -------------------
  const features::DatasetMatrix* matrix_ = nullptr;
  std::size_t total_n_ = 0;       // number of bootstrap entries
  std::vector<std::size_t> idx_;  // node-order entries; std::partition'd per split
  // Per-feature value-sorted entries, cols() blocks of total_n_ row ids,
  // partitioned in lockstep with idx_ (stable, so blocks stay sorted).
  std::vector<std::uint32_t> sorted_;
  std::vector<std::uint32_t> part_scratch_;   // stable-partition spill buffer
  std::vector<std::uint32_t> boot_mult_;      // bootstrap multiplicity per row
  std::vector<unsigned char> left_mask_;      // per dataset row: goes left?
  std::vector<double> cand_threshold_;        // per candidate
  std::vector<int> cand_order_;               // candidates by ascending threshold
  std::vector<std::size_t> running_counts_;   // sweep class counts
  std::vector<double> cand_left_counts_;      // candidates x classes snapshot
  std::vector<double> cand_n_left_;           // per candidate
};

}  // namespace ltefp::ml
