// CART decision tree (Gini impurity) — the base learner of the Random
// Forest the paper selects for its classifier (Table VIII: trees = 100).
//
// Split search samples candidate thresholds from the node's observed
// values (histogram-style) rather than scoring every midpoint; with
// per-node feature subsampling (mtry) this is the standard random-forest
// recipe and keeps training linear in node size.
//
// The trainer is columnar and needs no presort: for each tried feature a
// node gathers its values in node order, draws the candidate thresholds
// from them with the same RNG stream as the original per-candidate rescan
// trainer, ranks the candidates by threshold, and buckets every value
// among them (ml/split_kernels.hpp: a binary search, or an AVX2
// compare-count; both exact). A running sum over the bucket-by-class
// histogram, in threshold order, gives each candidate's left class
// counts, so all candidates of a feature cost one pass over the node.
// Split decisions, thresholds, tie order, and the RNG stream are
// unchanged, so trained trees are bit-identical to the historical AoS
// trainer (pinned by tests/test_columnar_ml.cpp against a reference
// implementation, at every SIMD tier).
//
// Non-finite features follow the reference's policy: a NaN value goes
// right of every threshold, as in prediction, and a NaN candidate
// threshold (drawn from a NaN value, or from +inf plus -inf) is never
// accepted.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "features/dataset.hpp"
#include "features/matrix.hpp"
#include "ml/split_kernels.hpp"

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
  /// positions. Throws std::invalid_argument when `indices` is empty, a
  /// row is out of range, or a row's label is outside [0, num_classes).
  void fit(const features::DatasetMatrix& data, std::span<const std::size_t> indices,
           int num_classes);

  /// Leaf class distribution for one feature vector.
  const std::vector<double>& predict_proba(const features::FeatureVector& x) const;

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

  // --- fit-scoped state (valid only inside fit/build) -------------------
  // Sized once per fit and reused by every node, then released: forests
  // keep many trained trees around.
  struct FitScratch {
    std::vector<std::uint32_t> idx;     // node-order rows; std::partition'd per split
    std::vector<int> labels;            // labels of the node's rows, node order
    std::vector<double> values;         // one tried feature's values, node order
    std::vector<double> counts;         // node class counts
    std::vector<std::size_t> tried;     // features tried at the node
    std::vector<double> left_counts;    // scored candidate's left class counts
    std::vector<double> right_counts;   // and right class counts
    std::vector<double> threshold;      // per candidate, in draw order
    std::vector<std::size_t> order;     // rank -> non-NaN candidate (by threshold, then index)
    std::vector<double> sorted;         // non-NaN thresholds by rank, +inf padded to 2^k
    std::vector<std::uint32_t> hist;    // bucket x class value counts
    std::vector<std::uint32_t> running; // sweep: left class counts so far
    std::vector<double> score;          // per candidate; +inf if never accepted
    BucketFn bucket = nullptr;          // bucketing tier, chosen once per fit
  };
  const features::DatasetMatrix* matrix_ = nullptr;
  FitScratch scratch_;
};

}  // namespace ltefp::ml
