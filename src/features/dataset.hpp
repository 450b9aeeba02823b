// Labeled dataset container shared by feature extraction and the ML stack.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace ltefp::features {

class DatasetMatrix;  // features/matrix.hpp — columnar view of a Dataset

using FeatureVector = std::vector<double>;

struct Sample {
  FeatureVector features;
  int label = 0;
};

struct Dataset {
  std::vector<Sample> samples;
  std::vector<std::string> feature_names;
  std::vector<std::string> label_names;

  std::size_t size() const { return samples.size(); }
  bool empty() const { return samples.empty(); }
  std::size_t feature_count() const {
    return samples.empty() ? feature_names.size() : samples.front().features.size();
  }
  int class_count() const { return static_cast<int>(label_names.size()); }

  void add(FeatureVector features, int label) {
    samples.push_back(Sample{std::move(features), label});
  }

  /// Per-class sample counts (index = label).
  std::vector<std::size_t> class_histogram() const;
};

/// Stratified split: each class contributes `train_fraction` of its samples
/// to the first (train) part. Order within parts is shuffled.
std::pair<Dataset, Dataset> train_test_split(const Dataset& data, double train_fraction,
                                             Rng& rng);

/// Z-score standardisation fitted on one dataset, applied to any other.
class Standardizer {
 public:
  /// Fits mean/stddev per feature over a row subset of a columnar matrix,
  /// accumulating in row order. Constant features get stddev 1. Throws
  /// std::invalid_argument on an empty row set.
  void fit_rows(const DatasetMatrix& data, std::span<const std::uint32_t> rows);
  /// Allocation-free transform into caller-owned scratch. `x` and `out`
  /// may alias; both must match the fitted dimensionality.
  void transform(std::span<const double> x, std::span<double> out) const;
  bool fitted() const { return !mean_.empty(); }

  const std::vector<double>& means() const { return mean_; }
  const std::vector<double>& stddevs() const { return stddev_; }

  /// Rebuilds a fitted standardiser from persisted parameters.
  static Standardizer from_params(std::vector<double> means, std::vector<double> stddevs);

 private:
  std::vector<double> mean_;
  std::vector<double> stddev_;
};

}  // namespace ltefp::features
