#include "features/dataset.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "features/matrix.hpp"

namespace ltefp::features {
namespace {

Dataset blob_dataset(std::size_t per_class, int classes, Rng& rng) {
  Dataset data;
  data.feature_names = {"x", "y"};
  data.label_names.resize(static_cast<std::size_t>(classes));
  for (int c = 0; c < classes; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      data.add({rng.normal(c * 10.0, 1.0), rng.normal(-c * 5.0, 1.0)}, c);
    }
  }
  return data;
}

TEST(Dataset, ClassHistogram) {
  Rng rng(1);
  const Dataset data = blob_dataset(20, 3, rng);
  const auto hist = data.class_histogram();
  ASSERT_EQ(hist.size(), 3u);
  for (const auto count : hist) EXPECT_EQ(count, 20u);
}

TEST(TrainTestSplit, StratifiedCounts) {
  Rng rng(2);
  const Dataset data = blob_dataset(50, 4, rng);
  auto [train, test] = train_test_split(data, 0.8, rng);
  EXPECT_EQ(train.size() + test.size(), data.size());
  const auto train_hist = train.class_histogram();
  const auto test_hist = test.class_histogram();
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(train_hist[static_cast<std::size_t>(c)], 40u);
    EXPECT_EQ(test_hist[static_cast<std::size_t>(c)], 10u);
  }
}

TEST(TrainTestSplit, ExtremeFractions) {
  Rng rng(3);
  const Dataset data = blob_dataset(10, 2, rng);
  auto [all_train, no_test] = train_test_split(data, 1.0, rng);
  EXPECT_EQ(all_train.size(), data.size());
  EXPECT_TRUE(no_test.empty());
  auto [no_train, all_test] = train_test_split(data, 0.0, rng);
  EXPECT_TRUE(no_train.empty());
  EXPECT_EQ(all_test.size(), data.size());
}

TEST(TrainTestSplit, InvalidFractionThrows) {
  Rng rng(4);
  const Dataset data = blob_dataset(5, 2, rng);
  EXPECT_THROW(train_test_split(data, -0.1, rng), std::invalid_argument);
  EXPECT_THROW(train_test_split(data, 1.5, rng), std::invalid_argument);
}

TEST(Standardizer, ZeroMeanUnitVariance) {
  Rng rng(5);
  Dataset data = blob_dataset(1000, 1, rng);
  const DatasetMatrix matrix(data);
  Standardizer st;
  st.fit_rows(matrix, matrix.all_rows());
  for (auto& s : data.samples) st.transform(s.features, s.features);
  double mean0 = 0.0, var0 = 0.0;
  for (const auto& s : data.samples) mean0 += s.features[0];
  mean0 /= static_cast<double>(data.size());
  for (const auto& s : data.samples) var0 += (s.features[0] - mean0) * (s.features[0] - mean0);
  var0 /= static_cast<double>(data.size());
  EXPECT_NEAR(mean0, 0.0, 1e-9);
  EXPECT_NEAR(var0, 1.0, 1e-9);
}

TEST(Standardizer, ConstantFeatureSafe) {
  Dataset data;
  data.label_names = {"a"};
  for (int i = 0; i < 10; ++i) data.add({7.0, static_cast<double>(i)}, 0);
  const DatasetMatrix matrix(data);
  Standardizer st;
  st.fit_rows(matrix, matrix.all_rows());
  const FeatureVector x{7.0, 4.5};
  FeatureVector out(2);
  st.transform(x, out);
  EXPECT_EQ(out[0], 0.0);  // (7-7)/1
  EXPECT_TRUE(std::isfinite(out[1]));
}

TEST(Standardizer, DimMismatchThrows) {
  Dataset data;
  data.label_names = {"a"};
  data.add({1.0, 2.0}, 0);
  const DatasetMatrix matrix(data);
  Standardizer st;
  st.fit_rows(matrix, matrix.all_rows());
  const FeatureVector short_x{1.0};
  const FeatureVector x{1.0, 2.0};
  FeatureVector out(2);
  FeatureVector short_out(1);
  EXPECT_THROW(st.transform(short_x, out), std::invalid_argument);
  EXPECT_THROW(st.transform(x, short_out), std::invalid_argument);
}

TEST(Standardizer, FitEmptyThrows) {
  const DatasetMatrix matrix{Dataset{}};
  Standardizer st;
  EXPECT_THROW(st.fit_rows(matrix, matrix.all_rows()), std::invalid_argument);
  EXPECT_FALSE(st.fitted());
}

}  // namespace
}  // namespace ltefp::features
