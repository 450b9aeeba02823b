#include "ml/logreg.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "features/matrix.hpp"

namespace ltefp::ml {

LogisticRegression::LogisticRegression(LogRegConfig config) : config_(config) {
  if (config_.c <= 0.0) throw std::invalid_argument("LogisticRegression: C must be positive");
}

void LogisticRegression::softmax_scores(std::span<const double> std_x,
                                        std::span<double> scores) const {
  for (int c = 0; c < num_classes_; ++c) {
    const auto& w = weights_[static_cast<std::size_t>(c)];
    double z = w.back();  // bias
    for (std::size_t d = 0; d < std_x.size(); ++d) z += w[d] * std_x[d];
    scores[static_cast<std::size_t>(c)] = z;
  }
  const double zmax = *std::max_element(scores.begin(), scores.end());
  double sum = 0.0;
  for (double& z : scores) {
    z = std::exp(z - zmax);
    sum += z;
  }
  for (double& z : scores) z /= sum;
}

void LogisticRegression::fit_rows(const features::DatasetMatrix& train,
                                  std::span<const std::uint32_t> rows) {
  if (rows.empty()) throw std::invalid_argument("LogisticRegression::fit: empty dataset");
  const StandardizedRows xs = standardize_rows(train, rows, standardizer_);
  num_classes_ = xs.num_classes;
  const std::size_t n = xs.size();
  const std::size_t dims = xs.dims;
  weights_.assign(static_cast<std::size_t>(num_classes_), std::vector<double>(dims + 1, 0.0));

  const double lambda = 1.0 / config_.c;  // L2 strength
  Rng rng(config_.seed);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> proba(static_cast<std::size_t>(num_classes_));

  const auto batch = static_cast<std::size_t>(std::max(1, config_.batch_size));
  std::vector<std::vector<double>> grad(static_cast<std::size_t>(num_classes_),
                                        std::vector<double>(dims + 1));
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.shuffle(order);
    // Simple 1/sqrt(t) step-size decay keeps late epochs stable.
    const double lr = config_.learning_rate / std::sqrt(1.0 + static_cast<double>(epoch));
    for (std::size_t start = 0; start < order.size(); start += batch) {
      const std::size_t stop = std::min(order.size(), start + batch);
      // Accumulate gradient over the batch.
      for (auto& g : grad) std::fill(g.begin(), g.end(), 0.0);
      for (std::size_t i = start; i < stop; ++i) {
        const std::size_t idx = order[i];
        const auto x = xs.row(idx);
        softmax_scores(x, proba);
        const int y = xs.labels[idx];
        for (int c = 0; c < num_classes_; ++c) {
          const double err = proba[static_cast<std::size_t>(c)] - (c == y ? 1.0 : 0.0);
          auto& g = grad[static_cast<std::size_t>(c)];
          for (std::size_t d = 0; d < dims; ++d) g[d] += err * x[d];
          g[dims] += err;
        }
      }
      const double scale = lr / static_cast<double>(stop - start);
      for (int c = 0; c < num_classes_; ++c) {
        auto& w = weights_[static_cast<std::size_t>(c)];
        const auto& g = grad[static_cast<std::size_t>(c)];
        for (std::size_t d = 0; d < dims; ++d) {
          w[d] -= scale * (g[d] + lambda * w[d] / static_cast<double>(n));
        }
        w[dims] -= scale * g[dims];  // bias unregularised
      }
    }
  }
}

std::vector<double> LogisticRegression::predict_proba(const FeatureVector& x) const {
  if (weights_.empty()) throw std::logic_error("LogisticRegression: not trained");
  FeatureVector z(x.size());
  standardizer_.transform(x, z);
  std::vector<double> scores(static_cast<std::size_t>(num_classes_));
  softmax_scores(z, scores);
  return scores;
}

std::vector<int> LogisticRegression::predict_rows(const features::DatasetMatrix& data,
                                                  std::span<const std::uint32_t> rows) const {
  if (weights_.empty()) throw std::logic_error("LogisticRegression: not trained");
  std::vector<int> out(rows.size());
  parallel_for(rows.size(), /*chunk=*/64, [&](std::size_t begin, std::size_t end) {
    FeatureVector raw(data.cols());
    FeatureVector z(data.cols());
    std::vector<double> scores(static_cast<std::size_t>(num_classes_));
    for (std::size_t i = begin; i < end; ++i) {
      data.gather_row(rows[i], raw);
      standardizer_.transform(raw, z);
      softmax_scores(z, scores);
      out[i] = static_cast<int>(std::max_element(scores.begin(), scores.end()) - scores.begin());
    }
  });
  return out;
}

}  // namespace ltefp::ml
