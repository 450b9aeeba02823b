#include "ml/hierarchical.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "features/matrix.hpp"

namespace ltefp::ml {

HierarchicalClassifier::HierarchicalClassifier(std::function<int(int)> group_of, int num_groups,
                                               Factory factory)
    : group_of_(std::move(group_of)), num_groups_(num_groups), factory_(std::move(factory)) {
  if (num_groups_ < 1) throw std::invalid_argument("HierarchicalClassifier: bad group count");
}

void HierarchicalClassifier::fit_rows(const features::DatasetMatrix& train,
                                      std::span<const std::uint32_t> rows) {
  if (rows.empty()) throw std::invalid_argument("HierarchicalClassifier::fit: empty dataset");
  num_labels_ = static_cast<int>(train.class_histogram(rows).size());

  // Stage 1: coarse-group labels over the shared feature columns. Rows
  // outside this fit's subset keep a dummy label; they are never visited.
  std::vector<int> coarse_labels(train.rows(), 0);
  for (const std::uint32_t row : rows) {
    coarse_labels[row] = group_of_(train.label(row));
  }
  const auto coarse = train.with_labels(
      std::move(coarse_labels), std::vector<std::string>(static_cast<std::size_t>(num_groups_)));
  group_model_ = factory_();
  group_model_->fit_rows(coarse, rows);

  // Stage 2: one fine model per group over that group's labels, again as
  // a relabeled view plus the group's row subset.
  stages_.clear();
  stages_.resize(static_cast<std::size_t>(num_groups_));
  for (int g = 0; g < num_groups_; ++g) {
    auto& stage = stages_[static_cast<std::size_t>(g)];
    // Collect the global labels occurring in this group.
    for (int label = 0; label < num_labels_; ++label) {
      if (group_of_(label) == g) stage.global_labels.push_back(label);
    }
    if (stage.global_labels.empty()) continue;
    std::vector<int> fine_labels(train.rows(), 0);
    std::vector<std::uint32_t> group_rows;
    for (const std::uint32_t row : rows) {
      const int label = train.label(row);
      if (group_of_(label) != g) continue;
      const auto it =
          std::find(stage.global_labels.begin(), stage.global_labels.end(), label);
      fine_labels[row] = static_cast<int>(it - stage.global_labels.begin());
      group_rows.push_back(row);
    }
    if (group_rows.empty()) {
      stage.global_labels.clear();
      continue;
    }
    if (stage.global_labels.size() == 1) continue;  // degenerate: single app
    const auto fine = train.with_labels(
        std::move(fine_labels), std::vector<std::string>(stage.global_labels.size()));
    stage.model = factory_();
    stage.model->fit_rows(fine, group_rows);
  }
}

int HierarchicalClassifier::predict_group(const FeatureVector& x) const {
  if (!group_model_) throw std::logic_error("HierarchicalClassifier: not trained");
  return group_model_->predict(x);
}

int HierarchicalClassifier::predict(const FeatureVector& x) const {
  const int g = predict_group(x);
  const auto& stage = stages_[static_cast<std::size_t>(g)];
  if (stage.global_labels.empty()) return 0;
  if (!stage.model) return stage.global_labels.front();
  const int local = stage.model->predict(x);
  return stage.global_labels[static_cast<std::size_t>(local)];
}

std::vector<int> HierarchicalClassifier::predict_rows(
    const features::DatasetMatrix& data, std::span<const std::uint32_t> rows) const {
  if (!group_model_) throw std::logic_error("HierarchicalClassifier: not trained");
  // Batch the coarse stage over all rows, then each fine stage over the
  // rows routed to its group — same decisions as per-sample predict(), but
  // every stage runs its own block-parallel batch traversal.
  const auto groups = group_model_->predict_rows(data, rows);
  std::vector<int> out(rows.size(), 0);
  std::vector<std::vector<std::uint32_t>> rows_of_group(static_cast<std::size_t>(num_groups_));
  std::vector<std::vector<std::size_t>> slots_of_group(static_cast<std::size_t>(num_groups_));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto g = static_cast<std::size_t>(groups[i]);
    rows_of_group[g].push_back(rows[i]);
    slots_of_group[g].push_back(i);
  }
  for (int g = 0; g < num_groups_; ++g) {
    const auto& stage = stages_[static_cast<std::size_t>(g)];
    const auto& member_rows = rows_of_group[static_cast<std::size_t>(g)];
    const auto& slots = slots_of_group[static_cast<std::size_t>(g)];
    if (member_rows.empty() || stage.global_labels.empty()) continue;  // out stays 0
    if (!stage.model) {
      for (const std::size_t slot : slots) out[slot] = stage.global_labels.front();
      continue;
    }
    const auto locals = stage.model->predict_rows(data, member_rows);
    for (std::size_t j = 0; j < slots.size(); ++j) {
      out[slots[j]] = stage.global_labels[static_cast<std::size_t>(locals[j])];
    }
  }
  return out;
}

std::vector<double> HierarchicalClassifier::predict_proba(const FeatureVector& x) const {
  if (!group_model_) throw std::logic_error("HierarchicalClassifier: not trained");
  std::vector<double> proba(static_cast<std::size_t>(num_labels_), 0.0);
  const auto group_proba = group_model_->predict_proba(x);
  for (int g = 0; g < num_groups_; ++g) {
    const auto& stage = stages_[static_cast<std::size_t>(g)];
    if (stage.global_labels.empty()) continue;
    const double pg = group_proba[static_cast<std::size_t>(g)];
    if (!stage.model) {
      proba[static_cast<std::size_t>(stage.global_labels.front())] += pg;
      continue;
    }
    const auto fine = stage.model->predict_proba(x);
    for (std::size_t i = 0; i < stage.global_labels.size(); ++i) {
      proba[static_cast<std::size_t>(stage.global_labels[i])] += pg * fine[i];
    }
  }
  return proba;
}

}  // namespace ltefp::ml
