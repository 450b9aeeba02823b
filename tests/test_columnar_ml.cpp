// Pins the columnar ML engine to the historical AoS implementations:
//
//  * the bucketing DecisionTree/RandomForest trainer must produce
//    serialized forests BYTE-identical to the original per-candidate
//    rescan trainer (reimplemented here as a reference), at every seed
//    and thread count;
//  * fold/stage row views (fit_rows) must equal fitting a hand-copied
//    subset;
//  * cross_val_accuracy must run copy-free through fit_rows/predict_rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/cpu.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "features/matrix.hpp"
#include "ml/crossval.hpp"
#include "ml/hierarchical.hpp"
#include "ml/knn.hpp"
#include "ml/logreg.hpp"
#include "ml/random_forest.hpp"
#include "ml/serialize.hpp"
#include "ml/split_kernels.hpp"
#include "simd_tiers.hpp"

namespace ltefp::ml {
namespace {

using features::Dataset;
using features::DatasetMatrix;

struct ThreadGuard {
  ~ThreadGuard() { set_thread_count(0); }
};

// Synthetic dataset with deliberate value ties (quantised columns), a
// constant column, and class imbalance — exercises tied values and
// thresholds, the a == b candidate path, and skipped features.
Dataset tricky_dataset(std::size_t n, int classes, std::uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  data.feature_names = {"f0", "f1", "f2", "f3", "f4", "const"};
  data.label_names.resize(static_cast<std::size_t>(classes));
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(rng.index(static_cast<std::size_t>(classes)));
    const double base = static_cast<double>(label);
    data.add({rng.normal(base, 1.0),
              std::round(rng.normal(2.0 * base, 2.0)),                    // heavy ties
              static_cast<double>(rng.index(4)),                          // 4 distinct values
              rng.normal(-base, 0.5),
              std::round(rng.normal(0.0, 3.0)) / 2.0,
              1.5},                                                       // constant column
             label);
  }
  return data;
}

// Non-finite features: a column with 20 % NaN, one with +-inf on either
// side of its finite values, and one of signed zeros among +-1. NaN
// values reach the threshold draws (NaN candidates), and the infinite
// column makes the a == b draw add +inf to -inf (NaN candidates too).
Dataset non_finite_dataset(std::size_t n, int classes, std::uint64_t seed) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(seed);
  Dataset data;
  data.feature_names = {"signal", "nan20", "inf", "zeros"};
  data.label_names.resize(static_cast<std::size_t>(classes));
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(rng.index(static_cast<std::size_t>(classes)));
    const double base = static_cast<double>(label);
    const double u = rng.uniform();
    const double zeros[] = {-1.0, -0.0, 0.0, 1.0};
    data.add({rng.normal(base, 1.5),
              rng.uniform() < 0.2 ? kNan : rng.normal(2.0 * base, 1.0),
              u < 0.15 ? kInf : (u < 0.3 ? -kInf : rng.normal(-base, 1.0)),
              zeros[(static_cast<std::size_t>(label) + rng.index(2)) % 4]},
             label);
  }
  return data;
}

// The rows of `data` listed in `rows`, copied sample by sample into a new
// Dataset: the copying path that row views replace.
Dataset copy_rows(const Dataset& data, std::span<const std::uint32_t> rows) {
  Dataset out;
  out.feature_names = data.feature_names;
  out.label_names = data.label_names;
  for (const std::uint32_t row : rows) out.samples.push_back(data.samples[row]);
  return out;
}

double gini_of(std::span<const double> counts, double total) {
  if (total <= 0.0) return 0.0;
  double sum_sq = 0.0;
  for (double c : counts) sum_sq += c * c;
  return 1.0 - sum_sq / (total * total);
}

// Reference reimplementation of the historical AoS trainer (gather node
// values per feature, rescan the node once per candidate threshold).
// Kept verbatim in spirit: same RNG stream, same arithmetic, same
// std::partition, so it defines the contract the bucketing trainer must
// reproduce bit for bit.
class ReferenceTree {
 public:
  ReferenceTree(TreeConfig config, std::uint64_t seed) : config_(config), rng_(seed) {}

  void fit(const Dataset& data, std::span<const std::size_t> indices, int num_classes) {
    num_classes_ = num_classes;
    std::vector<std::size_t> work(indices.begin(), indices.end());
    build(data, work, 0, work.size(), 0);
  }

  std::vector<DecisionTree::ExportedNode> take_nodes() { return std::move(nodes_); }

 private:
  int build(const Dataset& data, std::vector<std::size_t>& indices, std::size_t begin,
            std::size_t end, int depth) {
    const std::size_t n = end - begin;
    std::vector<double> counts(static_cast<std::size_t>(num_classes_), 0.0);
    for (std::size_t i = begin; i < end; ++i) {
      ++counts[static_cast<std::size_t>(data.samples[indices[i]].label)];
    }
    const double node_gini = gini_of(counts, static_cast<double>(n));

    const auto make_leaf = [&]() {
      DecisionTree::ExportedNode leaf;
      leaf.proba.resize(counts.size());
      for (std::size_t c = 0; c < counts.size(); ++c) {
        leaf.proba[c] = counts[c] / static_cast<double>(n);
      }
      const int id = static_cast<int>(nodes_.size());
      nodes_.push_back(std::move(leaf));
      return id;
    };

    if (depth >= config_.max_depth ||
        n < static_cast<std::size_t>(config_.min_samples_split) || node_gini <= 1e-12) {
      return make_leaf();
    }

    const std::size_t dims = data.samples[indices[begin]].features.size();
    std::vector<std::size_t> tried(dims);
    std::iota(tried.begin(), tried.end(), std::size_t{0});
    if (config_.mtry > 0 && static_cast<std::size_t>(config_.mtry) < dims) {
      rng_.shuffle(tried);
      tried.resize(static_cast<std::size_t>(config_.mtry));
    }

    int best_feature = -1;
    double best_threshold = 0.0;
    double best_score = node_gini;
    std::vector<double> left_counts(counts.size());
    std::vector<double> right_counts(counts.size());
    std::vector<double> values(n);

    for (const std::size_t f : tried) {
      double lo = std::numeric_limits<double>::infinity();
      double hi = -std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < n; ++i) {
        const double v = data.samples[indices[begin + i]].features[f];
        values[i] = v;
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      if (!(hi > lo)) continue;

      const int candidates = std::max(1, config_.threshold_candidates);
      for (int c = 0; c < candidates; ++c) {
        const double a = values[rng_.index(n)];
        const double b = values[rng_.index(n)];
        const double threshold =
            a == b ? (a + lo + (hi - lo) * rng_.uniform()) / 2.0 : (a + b) / 2.0;
        std::fill(left_counts.begin(), left_counts.end(), 0.0);
        double n_left = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          if (values[i] <= threshold) {
            ++left_counts[static_cast<std::size_t>(
                data.samples[indices[begin + i]].label)];
            ++n_left;
          }
        }
        const double n_right = static_cast<double>(n) - n_left;
        if (n_left < config_.min_samples_leaf || n_right < config_.min_samples_leaf) continue;
        for (std::size_t k = 0; k < counts.size(); ++k) {
          right_counts[k] = counts[k] - left_counts[k];
        }
        const double score = (n_left * gini_of(left_counts, n_left) +
                              n_right * gini_of(right_counts, n_right)) /
                             static_cast<double>(n);
        if (score + 1e-12 < best_score) {
          best_score = score;
          best_feature = static_cast<int>(f);
          best_threshold = threshold;
        }
      }
    }

    if (best_feature < 0) return make_leaf();

    const auto mid_it =
        std::partition(indices.begin() + static_cast<std::ptrdiff_t>(begin),
                       indices.begin() + static_cast<std::ptrdiff_t>(end), [&](std::size_t idx) {
                         return data.samples[idx]
                                    .features[static_cast<std::size_t>(best_feature)] <=
                                best_threshold;
                       });
    const auto mid = static_cast<std::size_t>(mid_it - indices.begin());
    if (mid == begin || mid == end) return make_leaf();

    DecisionTree::ExportedNode node;
    node.feature = best_feature;
    node.threshold = best_threshold;
    const int id = static_cast<int>(nodes_.size());
    nodes_.push_back(std::move(node));
    const int left = build(data, indices, begin, mid, depth + 1);
    const int right = build(data, indices, mid, end, depth + 1);
    nodes_[static_cast<std::size_t>(id)].left = left;
    nodes_[static_cast<std::size_t>(id)].right = right;
    return id;
  }

  TreeConfig config_;
  Rng rng_;
  int num_classes_ = 0;
  std::vector<DecisionTree::ExportedNode> nodes_;
};

// The historical serial RandomForest::fit, on the reference trainer.
RandomForest reference_forest(const Dataset& train, const ForestConfig& config) {
  const auto hist = train.class_histogram();
  const int num_classes = static_cast<int>(hist.size());
  TreeConfig tree_config = config.tree;
  if (tree_config.mtry == 0) {
    tree_config.mtry = std::max(
        1, static_cast<int>(std::round(std::sqrt(static_cast<double>(train.feature_count())))));
  }
  const auto n_boot = static_cast<std::size_t>(
      std::max(1.0, config.bootstrap_fraction * static_cast<double>(train.size())));
  std::vector<DecisionTree> trees;
  for (int t = 0; t < config.num_trees; ++t) {
    Rng rng(derive_seed({config.seed, static_cast<std::uint64_t>(t)}));
    std::vector<std::size_t> bootstrap(n_boot);
    for (auto& idx : bootstrap) idx = rng.index(train.size());
    ReferenceTree tree(tree_config, rng());
    tree.fit(train, bootstrap, num_classes);
    trees.push_back(DecisionTree::from_nodes(tree.take_nodes(), num_classes));
  }
  return RandomForest::from_trees(std::move(trees), num_classes);
}

std::string serialized(const RandomForest& forest) {
  std::ostringstream out;
  save_forest(out, forest);
  return out.str();
}

TEST(ColumnarTrainer, ForestBitIdenticalToReferenceAcrossSeedsAndThreads) {
  ThreadGuard guard;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const Dataset data = tricky_dataset(300, 4, 100 + seed);
    ForestConfig config;
    config.num_trees = 12;
    config.seed = seed;
    const std::string expected = serialized(reference_forest(data, config));
    for (const int threads : {1, 2, 8}) {
      set_thread_count(threads);
      RandomForest forest(config);
      forest.fit(data);
      EXPECT_EQ(serialized(forest), expected)
          << "seed " << seed << " threads " << threads;
    }
  }
}

// The trainer buckets values by a search over the sorted candidates,
// padded to a power of two: candidate counts of 1, just below, at and
// above a power of two, under- and over-sized bootstraps, and every
// feature tried at every node must all still match the rescan reference.
TEST(ColumnarTrainer, BucketBoundariesMatchReference) {
  ThreadGuard guard;
  set_thread_count(2);
  const Dataset data = tricky_dataset(240, 3, 71);
  for (const int candidates : {1, 7, 31, 32, 40, 64}) {
    for (const double fraction : {0.5, 1.5}) {
      for (const int mtry : {0, static_cast<int>(data.feature_count())}) {
        ForestConfig config;
        config.num_trees = 4;
        config.seed = 9;
        config.bootstrap_fraction = fraction;
        config.tree.threshold_candidates = candidates;
        config.tree.mtry = mtry;
        RandomForest forest(config);
        forest.fit(data);
        EXPECT_EQ(serialized(forest), serialized(reference_forest(data, config)))
            << "candidates " << candidates << " bootstrap " << fraction << " mtry " << mtry;
      }
    }
  }
}

TEST(ColumnarTrainer, SingleClassGrowsOneLeaf) {
  Rng rng(7);
  Dataset data;
  data.feature_names = {"a", "b"};
  data.label_names.resize(1);
  for (int i = 0; i < 50; ++i) data.add({rng.uniform(), rng.uniform()}, 0);
  std::vector<std::size_t> all(data.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  DecisionTree tree(TreeConfig{}, 3);
  tree.fit(features::DatasetMatrix(data), all, 1);
  EXPECT_EQ(tree.node_count(), 1);
  EXPECT_EQ(tree.predict_proba(data.samples[0].features), std::vector<double>{1.0});
}

TEST(ColumnarTrainer, ConstantFeatureDatasetStillMatchesReference) {
  // Every column constant -> no split improves, single leaf everywhere.
  Dataset data;
  data.feature_names = {"c0", "c1"};
  data.label_names.resize(2);
  for (int i = 0; i < 20; ++i) data.add({1.0, -2.0}, i % 2);
  ForestConfig config;
  config.num_trees = 4;
  RandomForest forest(config);
  forest.fit(data);
  EXPECT_EQ(serialized(forest), serialized(reference_forest(data, config)));
  for (const auto& tree : forest.trees()) EXPECT_EQ(tree.node_count(), 1);
}

// NaN candidates are never accepted and NaN values go right, as in the
// rescan reference and in prediction, at every bucketing tier. Every
// comparison with NaN is false, so a NaN candidate given a counting-sort
// rank would collide with rank 0 and leave another rank's slots stale.
TEST(ColumnarTrainer, NonFiniteFeaturesMatchReference) {
  ThreadGuard threads;
  TierGuard tier_guard;
  set_thread_count(2);
  const Dataset data = non_finite_dataset(300, 3, 23);
  for (const int candidates : {1, 7, 24, 40}) {
    ForestConfig config;
    config.num_trees = 6;
    config.seed = 5;
    config.tree.threshold_candidates = candidates;
    const std::string expected = serialized(reference_forest(data, config));
    for (const SimdTier tier : executable_tiers()) {
      set_simd_tier(tier);
      RandomForest forest(config);
      forest.fit(data);
      EXPECT_EQ(serialized(forest), expected)
          << "candidates " << candidates << " tier " << to_string(tier);
      EXPECT_GT(forest.trees().front().node_count(), 1) << "candidates " << candidates;
    }
  }
}

// Both bucketing tiers fill the same histogram slots below the ordered
// count, for every tail length and for ties, infinities and signed zeros;
// a NaN value lands at or past the ordered count, inside the histogram.
TEST(ColumnarTrainer, BucketKernelsAgreeBelowTheOrderedCount) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr std::size_t kClasses = 3;
  Rng rng(31);
  for (const std::size_t ordered : {std::size_t{1}, std::size_t{5}, std::size_t{24}}) {
    const std::size_t padded = std::bit_ceil(ordered + 1);
    std::vector<double> sorted(padded, kInf);
    for (std::size_t r = 0; r < ordered; ++r) sorted[r] = std::round(rng.normal(0.0, 3.0)) / 2.0;
    std::sort(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(ordered));
    sorted[0] = -0.0;
    std::sort(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(ordered));
    for (std::size_t n = 0; n <= 40; ++n) {
      std::vector<double> values(n);
      std::vector<int> labels(n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t kind = rng.index(8);
        values[i] = kind == 0   ? std::numeric_limits<double>::quiet_NaN()
                    : kind == 1 ? (rng.index(2) ? kInf : -kInf)
                    : kind == 2 ? sorted[rng.index(ordered)]
                    : kind == 3 ? 0.0
                                : std::round(rng.normal(0.0, 3.0)) / 2.0;
        labels[i] = static_cast<int>(rng.index(kClasses));
      }
      std::vector<std::uint32_t> scalar_hist(padded * kClasses, 0);
      std::vector<std::uint32_t> wide_hist(padded * kClasses, 0);
      BucketArgs args;
      args.values = values.data();
      args.labels = labels.data();
      args.n = n;
      args.sorted = sorted.data();
      args.ordered = ordered;
      args.padded = padded;
      args.classes = kClasses;
      args.hist = scalar_hist.data();
      bucket_scalar(args);
      if (detected_simd_tier() < SimdTier::kAvx2) continue;
      args.hist = wide_hist.data();
      bucket_avx2(args);
      const auto below = static_cast<std::ptrdiff_t>(ordered * kClasses);
      EXPECT_TRUE(std::equal(scalar_hist.begin(), scalar_hist.begin() + below, wide_hist.begin()))
          << "ordered " << ordered << " n " << n;
      std::uint32_t past_scalar = 0;
      std::uint32_t past_wide = 0;
      for (std::size_t k = ordered * kClasses; k < padded * kClasses; ++k) {
        past_scalar += scalar_hist[k];
        past_wide += wide_hist[k];
      }
      EXPECT_EQ(past_scalar, past_wide) << "ordered " << ordered << " n " << n;
    }
  }
}

TEST(ColumnarTrainer, LabelOutsideClassCountThrows) {
  const Dataset data = tricky_dataset(40, 3, 5);  // labels 0, 1 and 2
  const DatasetMatrix matrix(data);
  std::vector<std::size_t> all(matrix.rows());
  std::iota(all.begin(), all.end(), std::size_t{0});
  DecisionTree tree;
  EXPECT_THROW(tree.fit(matrix, all, 2), std::invalid_argument);
  std::vector<int> negative(matrix.labels().begin(), matrix.labels().end());
  negative[17] = -1;
  EXPECT_THROW(tree.fit(matrix.with_labels(negative, data.label_names), all, 3), std::invalid_argument);
  EXPECT_THROW(tree.fit(matrix, std::vector<std::size_t>{matrix.rows()}, 3),
               std::invalid_argument);
  tree.fit(matrix, all, 3);
  EXPECT_TRUE(tree.trained());
}

TEST(ColumnarTrainer, EmptyIndicesThrow) {
  const Dataset data = tricky_dataset(10, 2, 5);
  const DatasetMatrix matrix(data);
  DecisionTree tree;
  EXPECT_THROW(tree.fit(matrix, std::vector<std::size_t>{}, 2), std::invalid_argument);
  RandomForest forest;
  EXPECT_THROW(forest.fit_rows(matrix, {}), std::invalid_argument);
}

TEST(ColumnarTrainer, FitRowsMatchesMaterializedSubset) {
  const Dataset data = tricky_dataset(200, 3, 11);
  const DatasetMatrix matrix(data);
  std::vector<std::uint32_t> rows;
  for (std::uint32_t i = 0; i < matrix.rows(); ++i) {
    if (i % 3 != 0) rows.push_back(i);
  }
  ForestConfig config;
  config.num_trees = 8;
  RandomForest via_view(config);
  via_view.fit_rows(matrix, rows);
  RandomForest via_copy(config);
  via_copy.fit(copy_rows(data, rows));
  EXPECT_EQ(serialized(via_view), serialized(via_copy));
}

TEST(ColumnarTrainer, PredictRowsMatchesPerSamplePredict) {
  const Dataset data = tricky_dataset(200, 3, 13);
  RandomForest forest(ForestConfig{.num_trees = 10});
  forest.fit(data);
  const DatasetMatrix matrix(data);
  const auto batch = forest.predict_rows(matrix, matrix.all_rows());
  ASSERT_EQ(batch.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(batch[i], forest.predict(data.samples[i].features));
  }
}

TEST(DatasetMatrixTest, RoundTripsThroughGatherRow) {
  const Dataset data = tricky_dataset(40, 3, 17);
  const DatasetMatrix matrix(data);
  ASSERT_EQ(matrix.rows(), data.size());
  ASSERT_EQ(matrix.cols(), data.feature_count());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(matrix.label(i), data.samples[i].label);
    for (std::size_t f = 0; f < matrix.cols(); ++f) {
      EXPECT_EQ(matrix.at(i, f), data.samples[i].features[f]);
    }
  }
  EXPECT_EQ(matrix.feature_names(), data.feature_names);
  EXPECT_EQ(matrix.label_names(), data.label_names);
  features::FeatureVector row(matrix.cols());
  for (const std::uint32_t i : matrix.all_rows()) {
    matrix.gather_row(i, row);
    EXPECT_EQ(row, data.samples[i].features);
  }
}

TEST(DatasetMatrixTest, WithLabelsSharesColumnStorage) {
  const Dataset data = tricky_dataset(30, 3, 23);
  const DatasetMatrix matrix(data);
  std::vector<int> coarse(matrix.rows());
  for (std::size_t i = 0; i < matrix.rows(); ++i) coarse[i] = matrix.label(i) % 2;
  const DatasetMatrix view = matrix.with_labels(coarse, {"even", "odd"});
  for (std::size_t f = 0; f < matrix.cols(); ++f) {
    EXPECT_EQ(view.column(f).data(), matrix.column(f).data());  // shared, not copied
  }
  for (std::size_t i = 0; i < matrix.rows(); ++i) EXPECT_EQ(view.label(i), coarse[i]);
  EXPECT_THROW(matrix.with_labels({0, 1}, {}), std::invalid_argument);
}

TEST(DatasetMatrixTest, RaggedDatasetThrows) {
  Dataset data;
  data.label_names.resize(2);
  data.add({1.0, 2.0}, 0);
  data.samples.push_back({{1.0}, 1});  // wrong dimensionality
  EXPECT_THROW(DatasetMatrix{data}, std::invalid_argument);
}

// Counts every Classifier entry point; the columnar cross-validation loop
// must only ever use the row-view paths.
class SpyClassifier final : public Classifier {
 public:
  void fit(const Dataset&) override { ++fit_calls; }
  void fit_rows(const features::DatasetMatrix&, std::span<const std::uint32_t>) override {
    ++fit_rows_calls;
  }
  int predict(const FeatureVector&) const override {
    ++predict_calls;
    return 0;
  }
  std::vector<int> predict_rows(const features::DatasetMatrix&,
                                std::span<const std::uint32_t> rows) const override {
    ++predict_rows_calls;
    return std::vector<int>(rows.size(), 0);
  }
  std::vector<double> predict_proba(const FeatureVector&) const override { return {1.0}; }
  const char* name() const override { return "Spy"; }

  int fit_calls = 0;
  int fit_rows_calls = 0;
  mutable int predict_calls = 0;
  mutable int predict_rows_calls = 0;
};

TEST(CrossValColumnar, FoldsAreRowViewsNotCopies) {
  const Dataset data = tricky_dataset(80, 2, 29);
  SpyClassifier spy;
  cross_val_accuracy(spy, data, 4, 31);
  EXPECT_EQ(spy.fit_calls, 0) << "fold materialised a Dataset copy";
  EXPECT_EQ(spy.predict_calls, 0) << "test fold predicted sample-by-sample";
  EXPECT_EQ(spy.fit_rows_calls, 4);
  EXPECT_EQ(spy.predict_rows_calls, 4);
}

// The historical copying implementation, for accuracy equality.
double reference_cross_val(Classifier& model, const Dataset& data, int folds,
                           std::uint64_t seed) {
  const auto assignment = stratified_folds(data, folds, seed);
  std::size_t correct = 0, total = 0;
  for (int fold = 0; fold < folds; ++fold) {
    Dataset train, test;
    train.feature_names = test.feature_names = data.feature_names;
    train.label_names = test.label_names = data.label_names;
    for (std::size_t i = 0; i < data.samples.size(); ++i) {
      (assignment[i] == fold ? test : train).samples.push_back(data.samples[i]);
    }
    if (train.empty() || test.empty()) continue;
    model.fit(train);
    for (const auto& s : test.samples) {
      if (model.predict(s.features) == s.label) ++correct;
      ++total;
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(correct) / static_cast<double>(total);
}

TEST(CrossValColumnar, AccuracyEqualsCopyingReference) {
  const Dataset data = tricky_dataset(120, 3, 37);
  {
    RandomForest a(ForestConfig{.num_trees = 8});
    RandomForest b(ForestConfig{.num_trees = 8});
    EXPECT_DOUBLE_EQ(cross_val_accuracy(a, data, 4, 41), reference_cross_val(b, data, 4, 41));
  }
  {
    Knn a(KnnConfig{3});
    Knn b(KnnConfig{3});
    EXPECT_DOUBLE_EQ(cross_val_accuracy(a, data, 4, 41), reference_cross_val(b, data, 4, 41));
  }
  {
    LogRegConfig fast;
    fast.epochs = 10;
    LogisticRegression a(fast);
    LogisticRegression b(fast);
    EXPECT_DOUBLE_EQ(cross_val_accuracy(a, data, 4, 41), reference_cross_val(b, data, 4, 41));
  }
}

TEST(CrossValColumnar, EmptyFoldsAreSkipped) {
  // 3 samples per class over 5 folds leaves folds 3 and 4 empty; they
  // must be skipped, not crash or dilute the accuracy.
  Rng rng(43);
  Dataset data;
  data.feature_names = {"x"};
  data.label_names.resize(2);
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < 3; ++i) data.add({rng.normal(10.0 * c, 0.1)}, c);
  }
  RandomForest model(ForestConfig{.num_trees = 3});
  const double acc = cross_val_accuracy(model, data, 5, 47);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

TEST(HierarchicalColumnar, FitRowsMatchesDatasetFit) {
  const Dataset data = tricky_dataset(150, 4, 53);
  const auto factory = [] {
    return std::make_unique<RandomForest>(ForestConfig{.num_trees = 6});
  };
  const auto group_of = [](int label) { return label / 2; };
  HierarchicalClassifier via_dataset(group_of, 2, factory);
  via_dataset.fit(data);
  const DatasetMatrix matrix(data);
  HierarchicalClassifier via_rows(group_of, 2, factory);
  via_rows.fit_rows(matrix, matrix.all_rows());
  const auto batch = via_rows.predict_rows(matrix, matrix.all_rows());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(via_dataset.predict(data.samples[i].features), batch[i]);
    EXPECT_EQ(via_dataset.predict(data.samples[i].features),
              via_rows.predict(data.samples[i].features));
  }
}

TEST(StandardizerColumnar, SpanTransformIsExactAndAliasSafe) {
  // The span transform writes (x - mean) / stddev into caller scratch, and
  // stays exact when `x` and `out` alias.
  const Dataset data = tricky_dataset(50, 2, 59);
  const DatasetMatrix matrix(data);
  features::Standardizer standardizer;
  standardizer.fit_rows(matrix, matrix.all_rows());
  features::FeatureVector out(data.feature_count());
  for (const auto& s : data.samples) {
    features::FeatureVector expected(s.features.size());
    for (std::size_t d = 0; d < expected.size(); ++d) {
      expected[d] = (s.features[d] - standardizer.means()[d]) / standardizer.stddevs()[d];
    }
    standardizer.transform(s.features, out);
    EXPECT_EQ(expected, out);
    features::FeatureVector in_place = s.features;
    standardizer.transform(in_place, in_place);
    EXPECT_EQ(expected, in_place);
  }
}

TEST(StandardizerColumnar, FitRowsMatchesFitOnMaterializedSubset) {
  const Dataset data = tricky_dataset(70, 3, 61);
  const DatasetMatrix matrix(data);
  std::vector<std::uint32_t> rows;
  for (std::uint32_t i = 0; i < matrix.rows(); i += 2) rows.push_back(i);
  features::Standardizer via_rows;
  via_rows.fit_rows(matrix, rows);
  const DatasetMatrix copied(copy_rows(data, rows));
  features::Standardizer via_copy;
  via_copy.fit_rows(copied, copied.all_rows());
  EXPECT_EQ(via_rows.means(), via_copy.means());
  EXPECT_EQ(via_rows.stddevs(), via_copy.stddevs());
}

}  // namespace
}  // namespace ltefp::ml
