// k-Nearest-Neighbours with internal z-score standardisation.
//
// Paper Table VIII: k chosen by cross-validation over 1..10 (optimal k=4).
// As the paper notes, kNN prediction slows on large datasets — the
// micro-benchmarks quantify that.
//
// The neighbour set is the training rows standardised into one row-major
// buffer (ml::standardize_rows). The query core is span-based and works
// out of caller-owned scratch (standardised query + heap storage), so
// batch prediction over a DatasetMatrix allocates nothing per sample, and
// predict / predict_proba reuse a per-thread scratch: after warm-up,
// predict allocates nothing and predict_proba only the vector it returns.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "features/dataset.hpp"
#include "ml/classifier.hpp"

namespace ltefp::ml {

struct KnnConfig {
  int k = 4;
};

class Knn final : public Classifier {
 public:
  explicit Knn(KnnConfig config = {});

  /// Reusable per-query workspace for the span-based prediction path.
  struct Scratch {
    FeatureVector q;                            // standardised query
    std::vector<std::pair<double, int>> heap;   // (distance, label) max-heap
    std::vector<double> proba;
  };

  void fit_rows(const features::DatasetMatrix& train,
                std::span<const std::uint32_t> rows) override;
  int predict(const FeatureVector& x) const override;
  std::vector<double> predict_proba(const FeatureVector& x) const override;
  std::vector<int> predict_rows(const features::DatasetMatrix& data,
                                std::span<const std::uint32_t> rows) const override;

  /// Span core: predicts one raw (unstandardised) feature vector using
  /// caller scratch. No allocation after scratch warm-up.
  int predict_span(std::span<const double> x, Scratch& scratch) const;

  const char* name() const override { return "kNN"; }

  int k() const { return config_.k; }

 private:
  /// Fills scratch.proba with the neighbour class distribution of `x`.
  void neighbor_proba(std::span<const double> x, Scratch& scratch) const;

  KnnConfig config_;
  features::Standardizer standardizer_;
  StandardizedRows points_;  // the training samples, standardised
};

/// Selects k in [1, k_max] by `folds`-fold cross-validated accuracy, as the
/// paper does ("iterative process whereby we train and test the model
/// across a range of k values, from 1 to 10").
int select_k_by_cross_validation(const Dataset& data, int k_max, int folds, std::uint64_t seed);

}  // namespace ltefp::ml
