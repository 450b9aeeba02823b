// Multinomial logistic regression (softmax) with L2 regularisation,
// trained by mini-batch gradient descent.
//
// Paper Table VIII evaluates it with C = 1 (inverse regularisation
// strength) and notes its linearity assumption is the main limitation on
// this data. Also reused by the correlation attack (Section VII-C), which
// runs logistic regression on DTW similarity features to decide whether
// two traces represent communicating users.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "features/dataset.hpp"
#include "ml/classifier.hpp"

namespace ltefp::ml {

struct LogRegConfig {
  double c = 1.0;           // inverse regularisation strength (paper: C = 1)
  double learning_rate = 0.1;
  int epochs = 120;
  int batch_size = 64;
  std::uint64_t seed = 1;
};

class LogisticRegression final : public Classifier {
 public:
  explicit LogisticRegression(LogRegConfig config = {});

  void fit_rows(const features::DatasetMatrix& train,
                std::span<const std::uint32_t> rows) override;
  std::vector<double> predict_proba(const FeatureVector& x) const override;
  std::vector<int> predict_rows(const features::DatasetMatrix& data,
                                std::span<const std::uint32_t> rows) const override;
  const char* name() const override { return "LogisticRegression"; }

  /// Weight matrix row for a class (bias last), for inspection/tests.
  const std::vector<double>& weights(int cls) const { return weights_[static_cast<std::size_t>(cls)]; }

 private:
  /// Softmax over class scores of a standardised sample, written into
  /// caller-owned `scores` (size num_classes_). Allocation-free.
  void softmax_scores(std::span<const double> std_x, std::span<double> scores) const;

  LogRegConfig config_;
  features::Standardizer standardizer_;
  std::vector<std::vector<double>> weights_;  // [class][dim + 1 bias]
  int num_classes_ = 0;
};

}  // namespace ltefp::ml
