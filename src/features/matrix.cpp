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

FeatureVector DatasetMatrix::row_vector(std::size_t row) const {
  FeatureVector out(cols());
  gather_row(row, out);
  return out;
}

std::vector<std::uint32_t> DatasetMatrix::all_rows() const {
  std::vector<std::uint32_t> out(rows());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = static_cast<std::uint32_t>(i);
  return out;
}

Dataset DatasetMatrix::materialize(std::span<const std::uint32_t> rows) const {
  Dataset out;
  out.feature_names = feature_names_;
  out.label_names = label_names_;
  out.samples.reserve(rows.size());
  for (const std::uint32_t row : rows) {
    out.add(row_vector(row), labels_[row]);
  }
  return out;
}

DatasetMatrix DatasetMatrix::with_labels(std::vector<int> labels,
                                         std::vector<std::string> label_names) const {
  if (labels.size() != rows()) {
    throw std::invalid_argument("DatasetMatrix::with_labels: one label per row required");
  }
  DatasetMatrix out;
  out.store_ = store_;  // share columns and argsort cache
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

std::span<const std::uint32_t> DatasetMatrix::sorted_order(std::size_t f) const {
  const ColumnStore& store = *store_;
  std::call_once(store.argsort_once, [&store] {
    store.argsort.resize(store.cols * store.rows);
    for (std::size_t c = 0; c < store.cols; ++c) {
      std::uint32_t* block = store.argsort.data() + c * store.rows;
      for (std::size_t i = 0; i < store.rows; ++i) block[i] = static_cast<std::uint32_t>(i);
      const double* col = store.values.data() + c * store.rows;
      // Ties broken by row index: the order is a pure function of the data,
      // so every thread count (and every tree) sees the same permutation.
      std::sort(block, block + store.rows, [col](std::uint32_t a, std::uint32_t b) {
        return col[a] < col[b] || (col[a] == col[b] && a < b);
      });
    }
  });
  return {store.argsort.data() + f * store.rows, store.rows};
}

}  // namespace ltefp::features
