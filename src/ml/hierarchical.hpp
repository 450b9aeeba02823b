// Hierarchical classifier (paper Section VI / Figure 6 "hierarchical
// classification method based on Random Forest"): a first-stage model
// predicts the coarse class (Streaming / Messaging / VoIP), then a
// per-class second stage identifies the individual app — "We first
// identify the class of the application and then identify individual apps
// subsequently."
//
// Training runs on columnar label views: the coarse stage and each
// per-group fine stage share the one DatasetMatrix's feature columns via
// DatasetMatrix::with_labels — no feature copies per stage.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "features/dataset.hpp"
#include "ml/classifier.hpp"

namespace ltefp::ml {

class HierarchicalClassifier final : public Classifier {
 public:
  using Factory = std::function<std::unique_ptr<Classifier>()>;

  /// `group_of(label)` maps a fine label to its coarse group id in
  /// [0, num_groups). `factory` builds the stage models (default: caller
  /// provides, typically RandomForest).
  HierarchicalClassifier(std::function<int(int)> group_of, int num_groups, Factory factory);

  void fit_rows(const features::DatasetMatrix& train,
                std::span<const std::uint32_t> rows) override;
  int predict(const FeatureVector& x) const override;
  std::vector<int> predict_rows(const features::DatasetMatrix& data,
                                std::span<const std::uint32_t> rows) const override;
  std::vector<double> predict_proba(const FeatureVector& x) const override;
  const char* name() const override { return "Hierarchical"; }

  /// Predicted coarse group for one sample.
  int predict_group(const FeatureVector& x) const;

 private:
  std::function<int(int)> group_of_;
  int num_groups_;
  Factory factory_;
  std::unique_ptr<Classifier> group_model_;
  // Per group: the fine model and its local->global label mapping.
  struct Stage {
    std::unique_ptr<Classifier> model;
    std::vector<int> global_labels;  // local label -> global label
  };
  std::vector<Stage> stages_;
  int num_labels_ = 0;
};

}  // namespace ltefp::ml
