// Common interface for the supervised learners benchmarked by the paper's
// Table VIII (Logistic Regression, kNN, CNN, Random Forest).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "features/dataset.hpp"
#include "features/matrix.hpp"

namespace ltefp::ml {

using features::Dataset;
using features::FeatureVector;

class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Trains on the dataset. Implementations may standardise internally.
  virtual void fit(const Dataset& train) = 0;

  /// Trains on a row subset of a columnar matrix — the zero-copy path
  /// cross-validation folds and hierarchical stages use. The default
  /// materialises the subset and calls fit(); columnar learners override
  /// it. Implementations must produce a model bit-identical to fitting
  /// the materialised subset.
  virtual void fit_rows(const features::DatasetMatrix& train,
                        std::span<const std::uint32_t> rows);

  /// Predicted class label for one feature vector.
  virtual int predict(const FeatureVector& x) const = 0;

  /// Batch prediction over matrix rows, in row order. The default gathers
  /// each row into reusable per-chunk scratch and calls predict();
  /// columnar learners override it with block traversal.
  virtual std::vector<int> predict_rows(const features::DatasetMatrix& data,
                                        std::span<const std::uint32_t> rows) const;

  /// Per-class probability estimates (sums to 1).
  virtual std::vector<double> predict_proba(const FeatureVector& x) const = 0;

  virtual const char* name() const = 0;
};

}  // namespace ltefp::ml
