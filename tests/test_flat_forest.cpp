// Pins the flattened SoA inference engine (ml/flat_forest) to the
// pointer-tree walk of RandomForest::predict, run on each row:
//
//  * batch predictions must be BIT-identical at every dispatch tier the
//    host can execute (scalar, SSE2, AVX2) and at every thread count,
//    including after a serialize round-trip (the arena is rebuilt from
//    deserialised trees, so renumbering must not perturb a single vote);
//  * degenerate forests (single-leaf trees, constant features) and NaN
//    feature values must take the same branches as the pointer walk
//    (NaN compares false against any threshold -> right child);
//  * the DatasetMatrix::with_column view used by permutation importance
//    and the simd_cap_from_env parser are covered here too, as parts of
//    the same engine contract.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/cpu.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "features/matrix.hpp"
#include "ml/flat_forest.hpp"
#include "ml/flat_forest_kernels.hpp"
#include "ml/random_forest.hpp"
#include "ml/serialize.hpp"
#include "simd_tiers.hpp"

namespace ltefp::ml {
namespace {

using features::Dataset;
using features::DatasetMatrix;
using features::FeatureVector;

struct ThreadGuard {
  ~ThreadGuard() { set_thread_count(0); }
};

// Synthetic dataset with deliberate ties (quantised columns), a constant
// column, and class imbalance — trees split on repeated thresholds and
// skip the constant feature, the shapes that stress BFS renumbering.
Dataset tricky_dataset(std::size_t n, int classes, std::uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  data.feature_names = {"f0", "f1", "f2", "f3", "const"};
  data.label_names.resize(static_cast<std::size_t>(classes));
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(rng.index(static_cast<std::size_t>(classes)));
    const double base = static_cast<double>(label);
    data.add({rng.normal(base, 1.0),
              std::round(rng.normal(2.0 * base, 2.0)),      // heavy ties
              static_cast<double>(rng.index(4)),            // 4 distinct values
              rng.normal(-base, 0.5),
              -2.25},                                       // constant column
             label);
  }
  return data;
}

RandomForest small_forest(const Dataset& data, int trees = 20) {
  ForestConfig config;
  config.num_trees = trees;
  config.seed = 7;
  RandomForest rf(config);
  rf.fit(data);
  return rf;
}

/// The oracle: the per-sample pointer walk (RandomForest::predict) on each
/// row of `rows`, in order.
std::vector<int> predict_each_row(const RandomForest& rf, const DatasetMatrix& matrix,
                                  std::span<const std::uint32_t> rows) {
  std::vector<int> out;
  out.reserve(rows.size());
  FeatureVector x(matrix.cols());
  for (const std::uint32_t row : rows) {
    matrix.gather_row(row, x);
    out.push_back(rf.predict(x));
  }
  return out;
}

/// predict_rows under (tier, threads) must equal `expected` exactly.
void expect_identical_under(const RandomForest& rf, const DatasetMatrix& matrix,
                            const std::vector<int>& expected) {
  ThreadGuard threads_guard;
  TierGuard tier_guard;
  const auto rows = matrix.all_rows();
  for (const SimdTier tier : executable_tiers()) {
    set_simd_tier(tier);
    ASSERT_EQ(simd_tier(), tier);
    for (const int threads : {1, 2, 8}) {
      set_thread_count(threads);
      const auto got = rf.predict_rows(matrix, rows);
      ASSERT_EQ(got, expected) << "tier=" << to_string(tier)
                               << " threads=" << threads;
    }
  }
}

TEST(FlatForest, BitIdenticalToPointerReferenceAcrossTiersAndThreads) {
  const Dataset data = tricky_dataset(600, 3, 11);
  const RandomForest rf = small_forest(data);
  const DatasetMatrix matrix(data);
  const auto expected = predict_each_row(rf, matrix, matrix.all_rows());
  expect_identical_under(rf, matrix, expected);
}

TEST(FlatForest, SerializeRoundTripRebuildsAnIdenticalEngine) {
  const Dataset data = tricky_dataset(400, 4, 29);
  const RandomForest rf = small_forest(data);
  std::stringstream buffer;
  save_forest(buffer, rf);
  const RandomForest reloaded = load_forest(buffer);

  const DatasetMatrix matrix(data);
  const auto expected = predict_each_row(rf, matrix, matrix.all_rows());
  ASSERT_EQ(predict_each_row(reloaded, matrix, matrix.all_rows()), expected);
  expect_identical_under(reloaded, matrix, expected);
}

TEST(FlatForest, SingleLeafTreesSelfLoopToTheMajorityClass) {
  // One class only: every tree is a single leaf (threshold -inf, right =
  // self in the arena), and the level-sync sweep must self-loop there.
  Dataset data;
  data.feature_names = {"f0", "f1"};
  data.label_names = {"only", "never"};
  Rng rng(5);
  for (int i = 0; i < 50; ++i) data.add({rng.normal(0.0, 1.0), 4.5}, 0);
  const RandomForest rf = small_forest(data, 5);

  const DatasetMatrix matrix(data);
  const std::vector<int> expected(matrix.rows(), 0);
  ASSERT_EQ(predict_each_row(rf, matrix, matrix.all_rows()), expected);
  expect_identical_under(rf, matrix, expected);

  const FlatForest flat = FlatForest::build(rf.trees(), rf.class_count());
  EXPECT_EQ(flat.tree_count(), 5);
  EXPECT_EQ(flat.max_feature(), -1);  // no split reads any feature
}

TEST(FlatForest, NanFeaturesTakeTheRightChildAtEveryTier) {
  const Dataset train = tricky_dataset(500, 3, 17);
  const RandomForest rf = small_forest(train);

  // Predict-time NaNs (never seen in training): x <= thr is false, so the
  // pointer walk goes right; the flat step must land on the same leaf.
  Dataset test = tricky_dataset(80, 3, 99);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t i = 0; i < test.samples.size(); ++i) {
    test.samples[i].features[i % test.feature_count()] = nan;
  }
  const DatasetMatrix matrix(test);
  const auto expected = predict_each_row(rf, matrix, matrix.all_rows());
  expect_identical_under(rf, matrix, expected);
}

/// A chain-shaped tree deeper than kMaxChainLevels over tricky_dataset's
/// f0 (about N(label, 1)): node j sends f0 <= -2 + 0.1 j left to a leaf
/// voting class j % classes, so rows leave the spine at depths spread
/// over the whole chain, past kMaxChainLevels too.
DecisionTree deep_chain_tree(int classes) {
  const int depth = kMaxChainLevels + 8;
  std::vector<DecisionTree::ExportedNode> nodes(static_cast<std::size_t>(2 * depth + 1));
  for (int j = 0; j < depth; ++j) {
    DecisionTree::ExportedNode& split = nodes[static_cast<std::size_t>(j)];
    split.feature = 0;
    split.threshold = -2.0 + 0.1 * j;
    split.left = depth + j;
    split.right = j + 1 < depth ? j + 1 : 2 * depth;
  }
  for (int j = 0; j <= depth; ++j) {
    DecisionTree::ExportedNode& leaf = nodes[static_cast<std::size_t>(depth + j)];
    leaf.proba.assign(static_cast<std::size_t>(classes), 0.0);
    leaf.proba[static_cast<std::size_t>(j % classes)] = 1.0;
  }
  return DecisionTree::from_nodes(std::move(nodes), classes);
}

TEST(FlatForest, SmallBatchTailMatchesReferenceAtEveryRowCount) {
  // The wide tiers run full 16-row groups as row chains and everything
  // else (fewer than 16 rows, or trees deeper than kMaxChainLevels) in the
  // tree-interleaved tail. Every row count from 1 to 70 covers a pure
  // tail, full groups plus a tail, and a second 64-row batch, through a
  // strided row span rather than all_rows(). Both forests have 13 trees,
  // not a multiple of the 8-tree chain group. In `mixed`, the last tree of
  // each chain group is a depth-1 stump, so a group must step for its
  // deepest tree, not its last.
  ThreadGuard threads_guard;
  TierGuard tier_guard;
  const int classes = 3;
  const Dataset data = tricky_dataset(300, classes, 41);
  const DatasetMatrix matrix(data);

  ForestConfig stump_config;
  stump_config.num_trees = 2;
  stump_config.tree.max_depth = 1;
  RandomForest stumps(stump_config);
  stumps.fit(data);
  std::vector<DecisionTree> mixed_trees = small_forest(data, 11).trees();
  mixed_trees.insert(mixed_trees.begin() + 7, stumps.trees()[0]);
  mixed_trees.push_back(stumps.trees()[1]);
  const RandomForest mixed = RandomForest::from_trees(std::move(mixed_trees), classes);

  // Five of `deep`'s 13 trees are deeper than kMaxChainLevels, enough
  // votes that a wrong leaf in them changes predictions.
  std::vector<DecisionTree> trees = small_forest(data, 8).trees();
  for (const std::size_t at : {1, 4, 6, 9, 12}) {
    trees.insert(trees.begin() + static_cast<std::ptrdiff_t>(at), deep_chain_tree(classes));
  }
  const RandomForest deep = RandomForest::from_trees(std::move(trees), classes);
  // A chain of kMaxChainLevels + 8 splits, one leaf per split plus the last.
  ASSERT_EQ(deep.trees()[12].node_count(), 2 * (kMaxChainLevels + 8) + 1);
  EXPECT_EQ(deep.trees()[12].depth(), 40);

  for (const RandomForest* rf : {&mixed, &deep}) {
    ASSERT_EQ(rf->tree_count(), 13);
    for (std::size_t n = 1; n <= 70; ++n) {
      // A different strided span per count: a kernel that skipped a row
      // cannot pass on scratch left over from the previous call.
      std::vector<std::uint32_t> rows(n);
      for (std::size_t i = 0; i < n; ++i) {
        rows[i] = static_cast<std::uint32_t>((i * 7 + n * 11) % matrix.rows());
      }
      const std::span<const std::uint32_t> span(rows);
      const auto expected = predict_each_row(*rf, matrix, span);
      for (const SimdTier tier : executable_tiers()) {
        set_simd_tier(tier);
        for (const int threads : {1, 2, 8}) {
          set_thread_count(threads);
          ASSERT_EQ(rf->predict_rows(matrix, span), expected)
              << "rows=" << n << " tier=" << to_string(tier) << " threads=" << threads
              << (rf == &deep ? " (deep forest)" : "");
        }
      }
    }
  }
}

TEST(FlatForest, WithColumnSwapsOneColumnAndValidates) {
  const Dataset data = tricky_dataset(30, 2, 3);
  const DatasetMatrix matrix(data);

  std::vector<double> replacement(matrix.rows());
  for (std::size_t i = 0; i < replacement.size(); ++i) {
    replacement[i] = static_cast<double>(i) * 0.5;
  }
  const DatasetMatrix view = matrix.with_column(1, replacement);
  ASSERT_EQ(view.rows(), matrix.rows());
  ASSERT_EQ(view.cols(), matrix.cols());
  for (std::size_t i = 0; i < view.rows(); ++i) {
    EXPECT_EQ(view.at(i, 1), replacement[i]);
    EXPECT_EQ(view.at(i, 0), matrix.at(i, 0));  // other columns untouched
    EXPECT_EQ(view.label(i), matrix.label(i));
  }
  // The original store is immutable: the source matrix must not change.
  EXPECT_EQ(matrix.at(0, 1), data.samples[0].features[1]);

  EXPECT_THROW(matrix.with_column(matrix.cols(), replacement), std::invalid_argument);
  std::vector<double> short_values(matrix.rows() - 1);
  EXPECT_THROW(matrix.with_column(0, short_values), std::invalid_argument);
}

TEST(FlatForest, FromColumnsMatchesTheDatasetTranspose) {
  const Dataset data = tricky_dataset(25, 3, 8);
  const DatasetMatrix matrix(data);
  std::vector<double> values;
  for (std::size_t f = 0; f < matrix.cols(); ++f) {
    const auto column = matrix.column(f);
    values.insert(values.end(), column.begin(), column.end());
  }
  const DatasetMatrix built = DatasetMatrix::from_columns(values, matrix.rows(), matrix.cols());
  ASSERT_EQ(built.rows(), matrix.rows());
  ASSERT_EQ(built.cols(), matrix.cols());
  for (std::size_t i = 0; i < built.rows(); ++i) {
    for (std::size_t f = 0; f < built.cols(); ++f) EXPECT_EQ(built.at(i, f), matrix.at(i, f));
    EXPECT_EQ(built.label(i), 0);
  }
  const RandomForest rf = small_forest(data);
  EXPECT_EQ(rf.predict_rows(built, built.all_rows()),
            predict_each_row(rf, matrix, matrix.all_rows()));

  values.pop_back();
  EXPECT_THROW(DatasetMatrix::from_columns(values, matrix.rows(), matrix.cols()),
               std::invalid_argument);
}

TEST(FlatForest, SimdCapFromEnvParsing) {
  EXPECT_EQ(simd_cap_from_env(nullptr, nullptr), SimdTier::kAvx2);
  EXPECT_EQ(simd_cap_from_env("1", nullptr), SimdTier::kScalar);
  EXPECT_EQ(simd_cap_from_env("yes", nullptr), SimdTier::kScalar);
  EXPECT_EQ(simd_cap_from_env("0", nullptr), SimdTier::kAvx2);   // explicit off
  EXPECT_EQ(simd_cap_from_env("", nullptr), SimdTier::kAvx2);    // empty = unset
  EXPECT_EQ(simd_cap_from_env(nullptr, "scalar"), SimdTier::kScalar);
  EXPECT_EQ(simd_cap_from_env(nullptr, "sse2"), SimdTier::kSse2);
  EXPECT_EQ(simd_cap_from_env(nullptr, "avx2"), SimdTier::kAvx2);
  EXPECT_EQ(simd_cap_from_env(nullptr, "typo"), SimdTier::kAvx2);  // ignored
  // FORCE_SCALAR wins over an explicit LTEFP_SIMD.
  EXPECT_EQ(simd_cap_from_env("1", "avx2"), SimdTier::kScalar);
}

TEST(FlatForest, SetSimdTierNeverRaisesAboveDetected) {
  TierGuard guard;
  set_simd_tier(SimdTier::kAvx2);
  EXPECT_LE(simd_tier(), detected_simd_tier());
  set_simd_tier(SimdTier::kScalar);
  EXPECT_EQ(simd_tier(), SimdTier::kScalar);
}

}  // namespace
}  // namespace ltefp::ml
