// Columnar (structure-of-arrays) view of a labeled dataset.
//
// The AoS `Dataset` (one FeatureVector per sample) is the collection-side
// container; every ML path wants the transpose: one contiguous array per
// feature plus a flat label array. `DatasetMatrix` is that transpose,
// built once per dataset and then shared. It is the only thing a learner
// trains on: `Classifier::fit_rows` takes a (matrix, row-index) view, so
// cross-validation folds and hierarchical stages never copy feature
// storage, and `Classifier::fit(Dataset)` is a transpose plus that call.
//
// Storage is immutable after construction and held behind a shared_ptr:
// `with_labels` makes a relabeled view (coarse groups, per-stage local
// labels) that shares the feature columns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "features/dataset.hpp"

namespace ltefp::features {

class DatasetMatrix {
 public:
  DatasetMatrix() = default;

  /// Transposes `data` into column-major storage. Throws
  /// std::invalid_argument if samples disagree on dimensionality or the
  /// dataset exceeds the 32-bit row-index space.
  explicit DatasetMatrix(const Dataset& data);

  /// An unlabeled matrix (every label 0, no names) over column-major
  /// `values`: feature f of row i at values[f * rows + i]. For callers
  /// that already hold a batch's features, such as the streaming daemon,
  /// so no AoS Dataset is built in between. Throws std::invalid_argument
  /// unless values.size() == rows * cols, or if rows exceed the 32-bit
  /// row-index space.
  static DatasetMatrix from_columns(std::vector<double> values, std::size_t rows,
                                    std::size_t cols);

  std::size_t rows() const { return labels_.size(); }
  std::size_t cols() const { return store_ ? store_->cols : 0; }
  bool empty() const { return labels_.empty(); }

  /// One feature's values over all rows, contiguous.
  std::span<const double> column(std::size_t f) const {
    return {store_->values.data() + f * rows(), rows()};
  }
  double at(std::size_t row, std::size_t f) const {
    return store_->values[f * rows() + row];
  }

  int label(std::size_t row) const { return labels_[row]; }
  std::span<const int> labels() const { return labels_; }

  const std::vector<std::string>& feature_names() const { return feature_names_; }
  const std::vector<std::string>& label_names() const { return label_names_; }
  int class_count() const { return static_cast<int>(label_names_.size()); }

  /// Same semantics as Dataset::class_histogram, over all rows.
  std::vector<std::size_t> class_histogram() const;
  /// Histogram over a row subset (a fold / group view).
  std::vector<std::size_t> class_histogram(std::span<const std::uint32_t> rows) const;

  /// Copies row `row` into `out` (size must be cols()).
  void gather_row(std::size_t row, std::span<double> out) const;

  /// Every row index in order — the "whole dataset" view.
  std::vector<std::uint32_t> all_rows() const;

  /// A view sharing this matrix's feature columns with
  /// different labels — how the hierarchical classifier derives its coarse
  /// and per-group stage datasets without copying features. `labels` must
  /// have one entry per row.
  DatasetMatrix with_labels(std::vector<int> labels,
                            std::vector<std::string> label_names) const;

  /// A matrix equal to this one except column `f` holds `values` (one per
  /// row). The column store is copied (it is immutable once shared), so
  /// the result is a self-contained matrix fit for the batch predict
  /// path — permutation importance swaps one permuted column in per round
  /// this way.
  DatasetMatrix with_column(std::size_t f, std::span<const double> values) const;

 private:
  struct ColumnStore {
    std::vector<double> values;  // column-major: values[f * rows + i]
    std::size_t rows = 0;
    std::size_t cols = 0;
  };

  std::shared_ptr<const ColumnStore> store_;
  std::vector<int> labels_;
  std::vector<std::string> feature_names_;
  std::vector<std::string> label_names_;
};

}  // namespace ltefp::features
