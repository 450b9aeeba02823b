// Common interface for the supervised learners benchmarked by the paper's
// Table VIII (Logistic Regression, kNN, CNN, Random Forest).
//
// Every learner trains on one entry point: `fit_rows`, a row subset of a
// columnar `DatasetMatrix`. `fit(Dataset)` is a convenience that transposes
// once and forwards to it, so a cross-validation fold, a hierarchical
// stage and a whole dataset all run the same training arithmetic. kNN,
// logistic regression and the CNN, which learn on standardised features,
// read their samples from one `StandardizedRows` buffer.
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

  /// Predicted class label for one feature vector. The default is the
  /// first maximum of predict_proba(x).
  virtual int predict(const FeatureVector& x) const;

  /// Batch prediction over matrix rows, in row order. The default gathers
  /// each row into reusable per-chunk scratch and calls predict();
  /// columnar learners override it with block traversal.
  virtual std::vector<int> predict_rows(const features::DatasetMatrix& data,
                                        std::span<const std::uint32_t> rows) const;

  /// Per-class probability estimates (sums to 1).
  virtual std::vector<double> predict_proba(const FeatureVector& x) const = 0;

  virtual const char* name() const = 0;
};

/// A row view's samples, standardised, in view order: sample i's features
/// are values[i * dims, (i + 1) * dims).
struct StandardizedRows {
  std::vector<double> values;  // row-major
  std::vector<int> labels;
  std::size_t dims = 0;
  int num_classes = 0;  // class_histogram(rows).size()

  std::size_t size() const { return labels.size(); }
  std::span<const double> row(std::size_t i) const { return {values.data() + i * dims, dims}; }
};

/// Fits `standardizer` on the row view and writes the view's rows,
/// standardised by it, into one buffer: a fixed number of allocations,
/// none per row. Throws std::invalid_argument on an empty row set.
StandardizedRows standardize_rows(const features::DatasetMatrix& train,
                                  std::span<const std::uint32_t> rows,
                                  features::Standardizer& standardizer);

}  // namespace ltefp::ml
