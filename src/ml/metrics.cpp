#include "ml/metrics.hpp"

#include <sstream>
#include <stdexcept>

namespace ltefp::ml {

ConfusionMatrix::ConfusionMatrix(int num_classes)
    : num_classes_(num_classes),
      counts_(static_cast<std::size_t>(num_classes) * static_cast<std::size_t>(num_classes), 0) {
  if (num_classes <= 0) throw std::invalid_argument("ConfusionMatrix: need >= 1 class");
}

void ConfusionMatrix::add(int truth, int predicted) {
  if (truth < 0 || truth >= num_classes_ || predicted < 0 || predicted >= num_classes_) {
    throw std::out_of_range("ConfusionMatrix::add: label out of range");
  }
  ++counts_[static_cast<std::size_t>(truth) * static_cast<std::size_t>(num_classes_) +
            static_cast<std::size_t>(predicted)];
  ++total_;
}

std::size_t ConfusionMatrix::count(int truth, int predicted) const {
  return counts_[static_cast<std::size_t>(truth) * static_cast<std::size_t>(num_classes_) +
                 static_cast<std::size_t>(predicted)];
}

double ConfusionMatrix::accuracy() const {
  if (total_ == 0) return 0.0;
  std::size_t correct = 0;
  for (int c = 0; c < num_classes_; ++c) correct += count(c, c);
  return static_cast<double>(correct) / static_cast<double>(total_);
}

std::size_t ConfusionMatrix::support(int cls) const {
  std::size_t n = 0;
  for (int p = 0; p < num_classes_; ++p) n += count(cls, p);
  return n;
}

double ConfusionMatrix::precision(int cls) const {
  std::size_t predicted = 0;
  for (int t = 0; t < num_classes_; ++t) predicted += count(t, cls);
  if (predicted == 0) return 0.0;
  return static_cast<double>(count(cls, cls)) / static_cast<double>(predicted);
}

double ConfusionMatrix::recall(int cls) const {
  const std::size_t n = support(cls);
  if (n == 0) return 0.0;
  return static_cast<double>(count(cls, cls)) / static_cast<double>(n);
}

double ConfusionMatrix::f_score(int cls) const {
  const double p = precision(cls);
  const double r = recall(cls);
  if (p + r <= 0.0) return 0.0;  // both rates are non-negative
  return 2.0 * p * r / (p + r);
}

namespace {
template <typename Metric>
double weighted(const ConfusionMatrix& cm, Metric metric) {
  if (cm.total() == 0) return 0.0;
  double sum = 0.0;
  for (int c = 0; c < cm.num_classes(); ++c) {
    sum += metric(c) * static_cast<double>(cm.support(c));
  }
  return sum / static_cast<double>(cm.total());
}
}  // namespace

double ConfusionMatrix::weighted_recall() const {
  return weighted(*this, [this](int c) { return recall(c); });
}
double ConfusionMatrix::weighted_f_score() const {
  return weighted(*this, [this](int c) { return f_score(c); });
}

std::string ConfusionMatrix::to_string(const std::vector<std::string>& labels) const {
  std::ostringstream out;
  out << "truth \\ predicted\n";
  for (int t = 0; t < num_classes_; ++t) {
    if (static_cast<std::size_t>(t) < labels.size()) out << labels[t] << ": ";
    for (int p = 0; p < num_classes_; ++p) out << count(t, p) << (p + 1 < num_classes_ ? ' ' : '\n');
  }
  return out.str();
}

ConfusionMatrix evaluate(const std::vector<int>& truth, const std::vector<int>& predicted,
                         int num_classes) {
  if (truth.size() != predicted.size()) {
    throw std::invalid_argument("evaluate: size mismatch");
  }
  ConfusionMatrix cm(num_classes);
  for (std::size_t i = 0; i < truth.size(); ++i) cm.add(truth[i], predicted[i]);
  return cm;
}

BinaryMetrics binary_metrics(const std::vector<int>& truth, const std::vector<int>& predicted) {
  const ConfusionMatrix cm = evaluate(truth, predicted, 2);
  BinaryMetrics m;
  m.precision = cm.precision(1);
  m.recall = cm.recall(1);
  m.f_score = cm.f_score(1);
  m.accuracy = cm.accuracy();
  return m;
}

}  // namespace ltefp::ml
