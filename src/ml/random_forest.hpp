// Random Forest — the classifier the paper selects (Table VIII:
// "Number of tree = 100, Seed = 1"): bagged CART trees with per-node
// feature subsampling, probability averaging across trees.
//
// fit_rows() grows trees over a row view of one columnar DatasetMatrix,
// concurrently on the global pool: tree t's RNG is derived from
// (seed, t), so the forest is bit-identical at any thread count. Trees
// share the matrix's feature columns read-only; each fit keeps its own
// node scratch.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/classifier.hpp"
#include "ml/decision_tree.hpp"
#include "ml/flat_forest.hpp"

namespace ltefp::ml {

struct ForestConfig {
  int num_trees = 100;
  TreeConfig tree;          // tree.mtry 0 = auto (sqrt of feature count)
  double bootstrap_fraction = 1.0;
  std::uint64_t seed = 1;   // the paper's stated seed
};

class RandomForest final : public Classifier {
 public:
  explicit RandomForest(ForestConfig config = {});

  void fit_rows(const features::DatasetMatrix& train,
                std::span<const std::uint32_t> rows) override;
  std::vector<double> predict_proba(const FeatureVector& x) const override;
  std::vector<int> predict_rows(const features::DatasetMatrix& data,
                                std::span<const std::uint32_t> rows) const override;
  const char* name() const override { return "RandomForest"; }

  int tree_count() const { return static_cast<int>(trees_.size()); }
  int class_count() const { return num_classes_; }
  const std::vector<DecisionTree>& trees() const { return trees_; }

  /// Rebuilds a forest from deserialised trees (ml/serialize.hpp).
  static RandomForest from_trees(std::vector<DecisionTree> trees, int num_classes);

 private:
  ForestConfig config_;
  std::vector<DecisionTree> trees_;
  // Flattened SoA execution engine, rebuilt whenever trees_ changes; the
  // pointer trees stay the source of truth (serialization, single-sample
  // predict and predict_proba) — only batch prediction runs on the arena.
  // The per-sample pointer walk is the oracle tests/test_flat_forest.cpp
  // pins the arena against.
  FlatForest flat_;
  int num_classes_ = 0;
};

}  // namespace ltefp::ml
