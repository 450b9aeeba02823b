// Shared property tests over all four classifier families (Table VIII's
// LR / kNN / CNN / RF) plus per-model specifics.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <numeric>

#include "common/rng.hpp"
#include "features/matrix.hpp"
#include "ml/cnn.hpp"
#include "ml/knn.hpp"
#include "ml/logreg.hpp"
#include "ml/random_forest.hpp"

namespace ltefp::ml {
namespace {

Dataset gaussian_blobs(std::size_t per_class, int classes, double separation, Rng& rng,
                       std::size_t dims = 5) {
  Dataset data;
  data.feature_names.resize(dims, "f");
  data.label_names.resize(static_cast<std::size_t>(classes));
  for (int c = 0; c < classes; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      FeatureVector x(dims);
      for (std::size_t d = 0; d < dims; ++d) {
        x[d] = rng.normal(static_cast<double>(c) * separation * (d % 2 ? 1.0 : -1.0), 1.0);
      }
      data.add(std::move(x), c);
    }
  }
  return data;
}

double accuracy_on(const Classifier& model, const Dataset& data) {
  std::size_t correct = 0;
  for (const auto& s : data.samples) {
    if (model.predict(s.features) == s.label) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

struct ModelFactory {
  const char* label;
  std::function<std::unique_ptr<Classifier>()> make;
};

// Without this, gtest prints the parameter as raw bytes, pointers included,
// so the listed test names would change with every build's load address.
void PrintTo(const ModelFactory& factory, std::ostream* os) { *os << factory.label; }

class AllClassifiers : public ::testing::TestWithParam<ModelFactory> {};

TEST_P(AllClassifiers, SeparatesWellSeparatedBlobs) {
  Rng rng(11);
  const Dataset train = gaussian_blobs(150, 3, 8.0, rng);
  const Dataset test = gaussian_blobs(50, 3, 8.0, rng);
  auto model = GetParam().make();
  model->fit(train);
  EXPECT_GT(accuracy_on(*model, test), 0.95) << GetParam().label;
}

TEST_P(AllClassifiers, ProbabilitiesAreADistribution) {
  Rng rng(12);
  const Dataset train = gaussian_blobs(60, 4, 5.0, rng);
  auto model = GetParam().make();
  model->fit(train);
  for (int i = 0; i < 20; ++i) {
    const auto& x = train.samples[static_cast<std::size_t>(i * 7)].features;
    const auto proba = model->predict_proba(x);
    ASSERT_EQ(proba.size(), 4u);
    double sum = 0.0;
    for (const double p : proba) {
      ASSERT_GE(p, 0.0);
      ASSERT_LE(p, 1.0 + 1e-9);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-6) << GetParam().label;
  }
}

TEST_P(AllClassifiers, PredictMatchesArgmaxProba) {
  Rng rng(13);
  const Dataset train = gaussian_blobs(60, 3, 4.0, rng);
  auto model = GetParam().make();
  model->fit(train);
  for (int i = 0; i < 30; ++i) {
    const auto& x = train.samples[static_cast<std::size_t>(i * 5)].features;
    const auto proba = model->predict_proba(x);
    const int argmax = static_cast<int>(
        std::max_element(proba.begin(), proba.end()) - proba.begin());
    EXPECT_EQ(model->predict(x), argmax) << GetParam().label;
  }
}

// Training on a row view of a matrix is the same as training on a copy of
// those rows: every other row through fit_rows, against the hand-copied
// subset through fit, must give every row the same label and bit-identical
// probabilities.
TEST_P(AllClassifiers, FitRowsOnSubsetMatchesCopiedSubset) {
  Rng rng(14);
  const Dataset data = gaussian_blobs(40, 3, 2.0, rng);
  const features::DatasetMatrix matrix(data);
  std::vector<std::uint32_t> rows;
  Dataset copied;
  copied.feature_names = data.feature_names;
  copied.label_names = data.label_names;
  for (std::uint32_t i = 0; i < matrix.rows(); i += 2) {
    rows.push_back(i);
    copied.samples.push_back(data.samples[i]);
  }
  auto via_rows = GetParam().make();
  via_rows->fit_rows(matrix, rows);
  auto via_copy = GetParam().make();
  via_copy->fit(copied);
  const auto all = matrix.all_rows();
  EXPECT_EQ(via_rows->predict_rows(matrix, all), via_copy->predict_rows(matrix, all))
      << GetParam().label;
  for (const auto& s : data.samples) {
    ASSERT_EQ(via_rows->predict_proba(s.features), via_copy->predict_proba(s.features))
        << GetParam().label;
  }
}

// The class count is the matrix's label-name count, not the largest label
// the rows hold: rows without the top label still give one probability per
// named class, for every learner alike.
TEST_P(AllClassifiers, PredictProbaCoversEveryLabelName) {
  Rng rng(15);
  const Dataset data = gaussian_blobs(40, 3, 4.0, rng);
  const features::DatasetMatrix matrix(data);
  ASSERT_EQ(matrix.class_count(), 3);
  std::vector<std::uint32_t> rows;
  for (std::uint32_t i = 0; i < matrix.rows(); ++i) {
    if (matrix.label(i) != 2) rows.push_back(i);
  }
  auto model = GetParam().make();
  model->fit_rows(matrix, rows);
  for (const auto& s : data.samples) {
    ASSERT_EQ(model->predict_proba(s.features).size(), 3u) << GetParam().label;
  }
}

TEST_P(AllClassifiers, FitOnEmptyThrows) {
  auto model = GetParam().make();
  EXPECT_THROW(model->fit(Dataset{}), std::invalid_argument);
}

TEST_P(AllClassifiers, PredictBeforeFitThrows) {
  auto model = GetParam().make();
  EXPECT_THROW(model->predict({1.0, 2.0, 3.0, 4.0, 5.0}), std::logic_error);
}

INSTANTIATE_TEST_SUITE_P(
    Models, AllClassifiers,
    ::testing::Values(
        ModelFactory{"rf", [] { return std::make_unique<RandomForest>(
                                    ForestConfig{.num_trees = 30}); }},
        ModelFactory{"knn", [] { return std::make_unique<Knn>(KnnConfig{4}); }},
        ModelFactory{"logreg", [] { return std::make_unique<LogisticRegression>(); }},
        ModelFactory{"cnn", [] { return std::make_unique<Cnn1D>(
                                     CnnConfig{.epochs = 40}); }}),
    [](const ::testing::TestParamInfo<ModelFactory>& info) { return info.param.label; });

// --- model-specific behaviour

TEST(RandomForestSpecific, DeterministicForSameSeed) {
  Rng rng(20);
  const Dataset train = gaussian_blobs(80, 3, 3.0, rng);
  RandomForest a(ForestConfig{.num_trees = 10, .seed = 1});
  RandomForest b(ForestConfig{.num_trees = 10, .seed = 1});
  a.fit(train);
  b.fit(train);
  for (const auto& s : train.samples) {
    ASSERT_EQ(a.predict(s.features), b.predict(s.features));
  }
}

TEST(RandomForestSpecific, HandlesNonlinearXorThatDefeatsLogReg) {
  // The paper's stated reason for preferring RF: "the data is rarely
  // linearly separable ... the relationship between input and output is
  // nonlinear".
  Rng rng(21);
  Dataset data;
  data.label_names = {"a", "b"};
  data.feature_names = {"x", "y"};
  for (int i = 0; i < 600; ++i) {
    const double x = rng.uniform(-1, 1);
    const double y = rng.uniform(-1, 1);
    data.add({x, y}, (x > 0) == (y > 0) ? 1 : 0);
  }
  Rng split_rng(5);
  auto [train, test] = features::train_test_split(data, 0.8, split_rng);

  RandomForest rf(ForestConfig{.num_trees = 40});
  rf.fit(train);
  LogisticRegression lr;
  lr.fit(train);
  EXPECT_GT(accuracy_on(rf, test), 0.9);
  EXPECT_LT(accuracy_on(lr, test), 0.7) << "XOR should defeat a linear model";
}

TEST(RandomForestSpecific, TreeCountMatchesConfig) {
  Rng rng(22);
  const Dataset train = gaussian_blobs(30, 2, 4.0, rng);
  RandomForest rf(ForestConfig{.num_trees = 17});
  rf.fit(train);
  EXPECT_EQ(rf.tree_count(), 17);
}

TEST(KnnSpecific, KOneMemorisesTrainingSet) {
  Rng rng(23);
  const Dataset train = gaussian_blobs(50, 3, 2.0, rng);
  Knn knn(KnnConfig{1});
  knn.fit(train);
  EXPECT_EQ(accuracy_on(knn, train), 1.0);
}

TEST(KnnSpecific, InvalidKThrows) {
  EXPECT_THROW(Knn(KnnConfig{0}), std::invalid_argument);
}

TEST(KnnSpecific, CrossValidatedKInRange) {
  Rng rng(24);
  const Dataset data = gaussian_blobs(40, 3, 3.0, rng);
  const int k = select_k_by_cross_validation(data, 10, 4, 7);
  EXPECT_GE(k, 1);
  EXPECT_LE(k, 10);
}

TEST(LogRegSpecific, WeightsHaveBiasColumn) {
  Rng rng(25);
  const Dataset train = gaussian_blobs(50, 3, 4.0, rng, 6);
  LogisticRegression lr;
  lr.fit(train);
  EXPECT_EQ(lr.weights(0).size(), 7u);  // 6 dims + bias
}

TEST(LogRegSpecific, InvalidCThrows) {
  EXPECT_THROW(LogisticRegression(LogRegConfig{.c = 0.0}), std::invalid_argument);
}

TEST(CnnSpecific, EvenKernelThrows) {
  EXPECT_THROW(Cnn1D(CnnConfig{.kernel = 4}), std::invalid_argument);
}

TEST(DecisionTreeSpecific, RespectsMaxDepth) {
  Rng rng(26);
  const Dataset train = gaussian_blobs(200, 4, 1.0, rng);
  std::vector<std::size_t> all(train.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  DecisionTree tree(TreeConfig{.max_depth = 3}, 1);
  tree.fit(features::DatasetMatrix(train), all, 4);
  EXPECT_LE(tree.depth(), 3);
  EXPECT_TRUE(tree.trained());
}

TEST(DecisionTreeSpecific, PureNodeBecomesLeafImmediately) {
  Dataset data;
  data.label_names = {"only"};
  for (int i = 0; i < 20; ++i) data.add({static_cast<double>(i)}, 0);
  std::vector<std::size_t> all(data.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  DecisionTree tree;
  tree.fit(features::DatasetMatrix(data), all, 1);
  EXPECT_EQ(tree.node_count(), 1);
  EXPECT_EQ(tree.predict_proba({5.0}), std::vector<double>{1.0});
}

}  // namespace
}  // namespace ltefp::ml
