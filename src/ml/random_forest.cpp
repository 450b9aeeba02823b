#include "ml/random_forest.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace ltefp::ml {

RandomForest::RandomForest(ForestConfig config) : config_(config) {}

void RandomForest::fit_rows(const features::DatasetMatrix& train,
                            std::span<const std::uint32_t> rows) {
  if (rows.empty()) throw std::invalid_argument("RandomForest::fit: empty dataset");
  const auto hist = train.class_histogram(rows);
  num_classes_ = static_cast<int>(hist.size());

  TreeConfig tree_config = config_.tree;
  if (tree_config.mtry == 0) {
    tree_config.mtry = std::max(
        1, static_cast<int>(std::round(std::sqrt(static_cast<double>(train.cols())))));
  }

  const auto n_boot = static_cast<std::size_t>(
      std::max(1.0, config_.bootstrap_fraction * static_cast<double>(rows.size())));
  // Each tree's bootstrap resample and split RNG derive from (forest seed,
  // tree index) alone — not from a shared sequential stream — so trees
  // grow concurrently into their own slots and the forest is bit-identical
  // at any thread count.
  const int num_classes = num_classes_;
  trees_ = parallel_map(static_cast<std::size_t>(config_.num_trees), [&](std::size_t t) {
    Rng rng(derive_seed({config_.seed, static_cast<std::uint64_t>(t)}));
    std::vector<std::size_t> bootstrap(n_boot);
    const Rng::IndexBounds draw(rows.size());
    for (auto& idx : bootstrap) idx = rows[rng.index(draw)];
    DecisionTree tree(tree_config, rng());
    tree.fit(train, bootstrap, num_classes);
    return tree;
  });
  flat_ = FlatForest::build(trees_, num_classes_);
}

RandomForest RandomForest::from_trees(std::vector<DecisionTree> trees, int num_classes) {
  if (trees.empty()) throw std::invalid_argument("RandomForest::from_trees: no trees");
  if (num_classes <= 0) throw std::invalid_argument("RandomForest::from_trees: bad class count");
  RandomForest forest;
  forest.trees_ = std::move(trees);
  forest.num_classes_ = num_classes;
  forest.flat_ = FlatForest::build(forest.trees_, num_classes);
  return forest;
}

std::vector<double> RandomForest::predict_proba(const FeatureVector& x) const {
  if (trees_.empty()) throw std::logic_error("RandomForest: not trained");
  std::vector<double> proba(static_cast<std::size_t>(num_classes_), 0.0);
  for (const auto& tree : trees_) {
    const auto& p = tree.predict_proba(x);
    for (std::size_t c = 0; c < proba.size(); ++c) proba[c] += p[c];
  }
  for (double& p : proba) p /= static_cast<double>(trees_.size());
  return proba;
}

std::vector<int> RandomForest::predict_rows(const features::DatasetMatrix& data,
                                            std::span<const std::uint32_t> rows) const {
  if (trees_.empty()) throw std::logic_error("RandomForest: not trained");
  // Vectorized level-synchronous traversal over the flattened arena —
  // bit-identical to predict() on each row at every dispatch tier
  // (ml/flat_forest.hpp documents the argument, tests pin it).
  return flat_.predict_rows(data, rows);
}

}  // namespace ltefp::ml
