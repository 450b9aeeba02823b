// Classification metrics: confusion matrix, per-class precision / recall /
// F-score, and the weighted accuracy used in the paper's Table VIII.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ltefp::ml {

class ConfusionMatrix {
 public:
  explicit ConfusionMatrix(int num_classes);

  void add(int truth, int predicted);

  /// counts[truth][predicted]
  std::size_t count(int truth, int predicted) const;
  std::size_t total() const { return total_; }
  int num_classes() const { return num_classes_; }

  double accuracy() const;
  double precision(int cls) const;  // 0 when the class was never predicted
  double recall(int cls) const;     // 0 when the class never occurred
  double f_score(int cls) const;

  /// Mean of per-class metrics weighted by class support.
  double weighted_recall() const;
  double weighted_f_score() const;

  std::size_t support(int cls) const;

  std::string to_string(const std::vector<std::string>& labels = {}) const;

 private:
  int num_classes_;
  std::vector<std::size_t> counts_;  // row-major [truth * n + predicted]
  std::size_t total_ = 0;
};

/// Builds a confusion matrix from parallel truth/prediction vectors.
ConfusionMatrix evaluate(const std::vector<int>& truth, const std::vector<int>& predicted,
                         int num_classes);

/// Binary-classification helper used by the correlation attack (Table VII):
/// precision and recall of the positive class.
struct BinaryMetrics {
  double precision = 0.0;
  double recall = 0.0;
  double f_score = 0.0;
  double accuracy = 0.0;
};
BinaryMetrics binary_metrics(const std::vector<int>& truth, const std::vector<int>& predicted);

}  // namespace ltefp::ml
