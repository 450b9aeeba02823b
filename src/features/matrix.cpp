#include "features/matrix.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace ltefp::features {

DatasetMatrix::DatasetMatrix(const Dataset& data) {
  const std::size_t n = data.size();
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("DatasetMatrix: dataset exceeds 32-bit row space");
  }
  const std::size_t dims = data.feature_count();
  auto store = std::make_shared<ColumnStore>();
  store->rows = n;
  store->cols = dims;
  store->values.resize(dims * n);
  labels_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Sample& s = data.samples[i];
    if (s.features.size() != dims) {
      throw std::invalid_argument("DatasetMatrix: inconsistent feature dimensions");
    }
    for (std::size_t f = 0; f < dims; ++f) {
      store->values[f * n + i] = s.features[f];
    }
    labels_[i] = s.label;
  }
  store_ = std::move(store);
  feature_names_ = data.feature_names;
  label_names_ = data.label_names;
}

DatasetMatrix DatasetMatrix::from_columns(std::vector<double> values, std::size_t rows,
                                          std::size_t cols) {
  if (rows > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("DatasetMatrix: dataset exceeds 32-bit row space");
  }
  if (values.size() != rows * cols) {
    throw std::invalid_argument("DatasetMatrix: column values do not fill rows x cols");
  }
  auto store = std::make_shared<ColumnStore>();
  store->rows = rows;
  store->cols = cols;
  store->values = std::move(values);
  DatasetMatrix m;
  m.store_ = std::move(store);
  m.labels_.assign(rows, 0);
  return m;
}

std::vector<std::size_t> DatasetMatrix::class_histogram() const {
  std::vector<std::size_t> counts(label_names_.empty() ? 0 : label_names_.size(), 0);
  for (const int label : labels_) {
    if (label < 0) throw std::logic_error("DatasetMatrix: negative label");
    if (static_cast<std::size_t>(label) >= counts.size()) {
      counts.resize(static_cast<std::size_t>(label) + 1, 0);
    }
    ++counts[static_cast<std::size_t>(label)];
  }
  return counts;
}

std::vector<std::size_t> DatasetMatrix::class_histogram(
    std::span<const std::uint32_t> rows) const {
  std::vector<std::size_t> counts(label_names_.empty() ? 0 : label_names_.size(), 0);
  for (const std::uint32_t row : rows) {
    const int label = labels_[row];
    if (label < 0) throw std::logic_error("DatasetMatrix: negative label");
    if (static_cast<std::size_t>(label) >= counts.size()) {
      counts.resize(static_cast<std::size_t>(label) + 1, 0);
    }
    ++counts[static_cast<std::size_t>(label)];
  }
  return counts;
}

void DatasetMatrix::gather_row(std::size_t row, std::span<double> out) const {
  if (out.size() != cols()) throw std::invalid_argument("DatasetMatrix: gather size mismatch");
  const std::size_t n = rows();
  for (std::size_t f = 0; f < out.size(); ++f) {
    out[f] = store_->values[f * n + row];
  }
}

std::vector<std::uint32_t> DatasetMatrix::all_rows() const {
  std::vector<std::uint32_t> out(rows());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = static_cast<std::uint32_t>(i);
  return out;
}

DatasetMatrix DatasetMatrix::with_labels(std::vector<int> labels,
                                         std::vector<std::string> label_names) const {
  if (labels.size() != rows()) {
    throw std::invalid_argument("DatasetMatrix::with_labels: one label per row required");
  }
  DatasetMatrix out;
  out.store_ = store_;  // share the columns
  out.labels_ = std::move(labels);
  out.feature_names_ = feature_names_;
  out.label_names_ = std::move(label_names);
  return out;
}

DatasetMatrix DatasetMatrix::with_column(std::size_t f,
                                         std::span<const double> values) const {
  if (f >= cols()) {
    throw std::invalid_argument("DatasetMatrix::with_column: column out of range");
  }
  if (values.size() != rows()) {
    throw std::invalid_argument("DatasetMatrix::with_column: one value per row required");
  }
  auto store = std::make_shared<ColumnStore>();
  store->rows = store_->rows;
  store->cols = store_->cols;
  store->values = store_->values;  // fresh copy: the store stays immutable
  std::copy(values.begin(), values.end(), store->values.begin() + f * rows());
  DatasetMatrix out;
  out.store_ = std::move(store);
  out.labels_ = labels_;
  out.feature_names_ = feature_names_;
  out.label_names_ = label_names_;
  return out;
}

}  // namespace ltefp::features
