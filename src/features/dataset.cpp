#include "features/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "features/matrix.hpp"

namespace ltefp::features {

std::vector<std::size_t> Dataset::class_histogram() const {
  std::vector<std::size_t> counts(label_names.empty() ? 0 : label_names.size(), 0);
  for (const auto& s : samples) {
    if (s.label < 0) throw std::logic_error("Dataset: negative label");
    if (static_cast<std::size_t>(s.label) >= counts.size()) {
      counts.resize(static_cast<std::size_t>(s.label) + 1, 0);
    }
    ++counts[static_cast<std::size_t>(s.label)];
  }
  return counts;
}

std::pair<Dataset, Dataset> train_test_split(const Dataset& data, double train_fraction,
                                             Rng& rng) {
  if (train_fraction < 0.0 || train_fraction > 1.0) {
    throw std::invalid_argument("train_test_split: fraction must be in [0,1]");
  }
  Dataset train, test;
  train.feature_names = test.feature_names = data.feature_names;
  train.label_names = test.label_names = data.label_names;

  // Group indices by class, shuffle each group, then cut.
  const auto hist = data.class_histogram();
  std::vector<std::vector<std::size_t>> by_class(hist.size());
  for (std::size_t i = 0; i < data.samples.size(); ++i) {
    by_class[static_cast<std::size_t>(data.samples[i].label)].push_back(i);
  }
  for (auto& group : by_class) {
    rng.shuffle(group);
    const auto n_train = static_cast<std::size_t>(
        std::round(train_fraction * static_cast<double>(group.size())));
    for (std::size_t j = 0; j < group.size(); ++j) {
      (j < n_train ? train : test).samples.push_back(data.samples[group[j]]);
    }
  }
  rng.shuffle(train.samples);
  rng.shuffle(test.samples);
  return {std::move(train), std::move(test)};
}

void Standardizer::fit_rows(const DatasetMatrix& data, std::span<const std::uint32_t> rows) {
  if (rows.empty()) throw std::invalid_argument("Standardizer::fit_rows: empty row set");
  const std::size_t dims = data.cols();
  mean_.assign(dims, 0.0);
  stddev_.assign(dims, 0.0);
  // Accumulate in (row, dim) order, so a view and a copied subset of the
  // same rows round identically.
  for (const std::uint32_t row : rows) {
    for (std::size_t d = 0; d < dims; ++d) mean_[d] += data.at(row, d);
  }
  for (double& m : mean_) m /= static_cast<double>(rows.size());
  for (const std::uint32_t row : rows) {
    for (std::size_t d = 0; d < dims; ++d) {
      const double diff = data.at(row, d) - mean_[d];
      stddev_[d] += diff * diff;
    }
  }
  for (double& sd : stddev_) {
    sd = std::sqrt(sd / static_cast<double>(rows.size()));
    if (sd < 1e-12) sd = 1.0;
  }
}

Standardizer Standardizer::from_params(std::vector<double> means,
                                       std::vector<double> stddevs) {
  if (means.size() != stddevs.size() || means.empty()) {
    throw std::invalid_argument("Standardizer::from_params: size mismatch");
  }
  for (const double sd : stddevs) {
    if (sd <= 0.0) throw std::invalid_argument("Standardizer::from_params: non-positive stddev");
  }
  Standardizer st;
  st.mean_ = std::move(means);
  st.stddev_ = std::move(stddevs);
  return st;
}

void Standardizer::transform(std::span<const double> x, std::span<double> out) const {
  if (x.size() != mean_.size() || out.size() != mean_.size()) {
    throw std::invalid_argument("Standardizer: dim mismatch");
  }
  for (std::size_t d = 0; d < x.size(); ++d) out[d] = (x[d] - mean_[d]) / stddev_[d];
}

}  // namespace ltefp::features
