// Common interface for the supervised learners benchmarked by the paper's
// Table VIII (Logistic Regression, kNN, CNN, Random Forest).
//
// Every learner trains on one entry point: `fit_rows`, a row subset of a
// columnar `DatasetMatrix`. `fit(Dataset)` is a convenience that transposes
// once and forwards to it, so a cross-validation fold, a hierarchical
// stage and a whole dataset all run the same training arithmetic.
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

  /// Trains on every sample of `train`: transposes it once and calls
  /// fit_rows() over all rows (an empty dataset is an empty row set, which
  /// every learner rejects with std::invalid_argument). Virtual only so
  /// wrappers that hold an already trained model can refuse training;
  /// learners override fit_rows() instead.
  virtual void fit(const Dataset& train);

  /// Trains on a row subset of a columnar matrix — the zero-copy path
  /// cross-validation folds and hierarchical stages use, and the one
  /// every learner implements. The default throws std::logic_error: a
  /// classifier without it cannot be trained.
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
