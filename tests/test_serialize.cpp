#include "ml/serialize.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hpp"
#include "features/matrix.hpp"

namespace ltefp::ml {
namespace {

Dataset blobs(Rng& rng, std::size_t per_class = 100, int classes = 3) {
  Dataset data;
  data.feature_names = {"a", "b", "c", "d"};
  data.label_names.resize(static_cast<std::size_t>(classes));
  for (int c = 0; c < classes; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      data.add({rng.normal(c * 4.0, 1.0), rng.normal(-c * 3.0, 1.0), rng.normal(0, 1),
                rng.normal(c * 1.0, 2.0)},
               c);
    }
  }
  return data;
}

TEST(ForestSerialization, RoundTripPredictionsIdentical) {
  Rng rng(1);
  const Dataset data = blobs(rng);
  RandomForest original(ForestConfig{.num_trees = 12});
  original.fit(data);

  std::stringstream buffer;
  save_forest(buffer, original);
  const RandomForest reloaded = load_forest(buffer);

  EXPECT_EQ(reloaded.tree_count(), original.tree_count());
  EXPECT_EQ(reloaded.class_count(), original.class_count());
  for (const auto& s : data.samples) {
    ASSERT_EQ(reloaded.predict(s.features), original.predict(s.features));
    const auto pa = original.predict_proba(s.features);
    const auto pb = reloaded.predict_proba(s.features);
    for (std::size_t c = 0; c < pa.size(); ++c) {
      ASSERT_DOUBLE_EQ(pa[c], pb[c]);
    }
  }
}

TEST(ForestSerialization, RoundTripKeepsTreeDepths) {
  Rng rng(3);
  const Dataset data = blobs(rng);
  RandomForest original(ForestConfig{.num_trees = 6});
  original.fit(data);

  std::stringstream buffer;
  save_forest(buffer, original);
  const RandomForest reloaded = load_forest(buffer);

  ASSERT_EQ(reloaded.tree_count(), original.tree_count());
  for (std::size_t t = 0; t < original.trees().size(); ++t) {
    EXPECT_GT(original.trees()[t].depth(), 0);
    EXPECT_EQ(reloaded.trees()[t].depth(), original.trees()[t].depth()) << "tree " << t;
  }
}

TEST(ForestSerialization, NodesThatAreNotOneTreeThrow) {
  for (const char* text : {
           // node 1 points back at the root
           "ltefp-rf v1\ntrees 1 classes 2\ntree 3\nnode 0 0.5 1 2\nnode 0 0.1 0 2\nleaf 1 0\n",
           // both children are the same leaf
           "ltefp-rf v1\ntrees 1 classes 2\ntree 3\nnode 0 0.5 1 1\nleaf 1 0\nleaf 0 1\n",
           // a self-loop
           "ltefp-rf v1\ntrees 1 classes 2\ntree 2\nnode 0 0.5 0 1\nleaf 1 0\n",
           // node 2 is never reached
           "ltefp-rf v1\ntrees 1 classes 2\ntree 3\nleaf 1 0\nleaf 0 1\nleaf 0 1\n"}) {
    std::stringstream in(text);
    EXPECT_THROW(load_forest(in), std::invalid_argument) << text;
  }
}

TEST(ForestSerialization, UntrainedForestRefusesToSave) {
  RandomForest empty;
  std::stringstream buffer;
  EXPECT_THROW(save_forest(buffer, empty), std::logic_error);
}

TEST(ForestSerialization, MalformedInputsThrow) {
  {
    std::stringstream in("garbage");
    EXPECT_THROW(load_forest(in), std::runtime_error);
  }
  {
    std::stringstream in("ltefp-rf v1\ntrees 0 classes 3\n");
    EXPECT_THROW(load_forest(in), std::runtime_error);
  }
  {
    std::stringstream in("ltefp-rf v1\ntrees 1 classes 2\ntree 1\nnode 0 0.5 5 6\n");
    EXPECT_THROW(load_forest(in), std::invalid_argument);  // child out of range
  }
  {
    std::stringstream in("ltefp-rf v1\ntrees 1 classes 2\ntree 1\nleaf 1.0\n");
    EXPECT_THROW(load_forest(in), std::runtime_error);  // truncated distribution
  }
}

TEST(ForestSerialization, OversizedHeaderCountsThrowBeforeAllocating) {
  // Each count would size a multi-gigabyte reservation if trusted; the
  // loader must refuse it with a diagnostic, never std::bad_alloc.
  for (const char* text : {"ltefp-rf v1\ntrees 2000000000 classes 2\n",
                           "ltefp-rf v1\ntrees 1 classes 2000000000\ntree 1\nleaf 1\n",
                           "ltefp-rf v1\ntrees 1 classes 2\ntree 2000000000\nleaf 1 0\n"}) {
    std::stringstream in(text);
    EXPECT_THROW(load_forest(in), std::runtime_error) << text;
  }
}

TEST(ForestSerialization, HandCraftedStumpWorks) {
  std::stringstream in(
      "ltefp-rf v1\n"
      "trees 1 classes 2\n"
      "tree 3\n"
      "node 0 0.5 1 2\n"
      "leaf 1 0\n"
      "leaf 0 1\n");
  const RandomForest forest = load_forest(in);
  EXPECT_EQ(forest.predict({0.0}), 0);
  EXPECT_EQ(forest.predict({1.0}), 1);
}

TEST(StandardizerSerialization, RoundTrip) {
  Rng rng(2);
  const Dataset data = blobs(rng, 50, 2);
  const features::DatasetMatrix matrix(data);
  features::Standardizer original;
  original.fit_rows(matrix, matrix.all_rows());
  std::stringstream buffer;
  save_standardizer(buffer, original);
  const features::Standardizer reloaded = load_standardizer(buffer);
  const features::FeatureVector probe{1.0, -2.0, 0.5, 3.0};
  features::FeatureVector want(probe.size());
  features::FeatureVector got(probe.size());
  original.transform(probe, want);
  reloaded.transform(probe, got);
  EXPECT_EQ(want, got);
}

TEST(StandardizerSerialization, UnfittedRefusesToSave) {
  features::Standardizer empty;
  std::stringstream buffer;
  EXPECT_THROW(save_standardizer(buffer, empty), std::logic_error);
}

TEST(StandardizerSerialization, OversizedDimsThrowBeforeAllocating) {
  for (const char* text : {"ltefp-std v1 18446744073709551615\n", "ltefp-std v1 23\n",
                           "ltefp-std v1 0\n"}) {
    std::stringstream in(text);
    EXPECT_THROW(load_standardizer(in), std::runtime_error) << text;
  }
}

TEST(StandardizerSerialization, FromParamsValidation) {
  EXPECT_THROW(features::Standardizer::from_params({1.0}, {}), std::invalid_argument);
  EXPECT_THROW(features::Standardizer::from_params({1.0}, {0.0}), std::invalid_argument);
}

}  // namespace
}  // namespace ltefp::ml
