#include "ml/knn.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/parallel.hpp"
#include "features/matrix.hpp"
#include "ml/crossval.hpp"

namespace ltefp::ml {

Knn::Knn(KnnConfig config) : config_(config) {
  if (config_.k < 1) throw std::invalid_argument("Knn: k must be >= 1");
}

void Knn::fit_rows(const features::DatasetMatrix& train,
                   std::span<const std::uint32_t> rows) {
  if (rows.empty()) throw std::invalid_argument("Knn::fit: empty dataset");
  points_ = standardize_rows(train, rows, standardizer_);
}

void Knn::neighbor_proba(std::span<const double> x, Scratch& scratch) const {
  if (points_.size() == 0) throw std::logic_error("Knn: not trained");
  scratch.q.resize(x.size());
  standardizer_.transform(x, scratch.q);
  const FeatureVector& q = scratch.q;
  // Max-heap of (distance, label) keeping the k smallest distances — the
  // same push_heap/pop_heap discipline std::priority_queue uses, but on a
  // reusable buffer.
  auto& heap = scratch.heap;
  heap.clear();
  const auto k = static_cast<std::size_t>(config_.k);
  for (std::size_t i = 0; i < points_.size(); ++i) {
    double d = 0.0;
    const auto p = points_.row(i);
    for (std::size_t f = 0; f < p.size(); ++f) {
      const double diff = p[f] - q[f];
      d += diff * diff;
      if (heap.size() == k && d > heap.front().first) break;  // early exit
    }
    if (heap.size() < k) {
      heap.emplace_back(d, points_.labels[i]);
      std::push_heap(heap.begin(), heap.end());
    } else if (d < heap.front().first) {
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = {d, points_.labels[i]};
      std::push_heap(heap.begin(), heap.end());
    }
  }
  scratch.proba.assign(static_cast<std::size_t>(points_.num_classes), 0.0);
  for (const auto& [dist, label] : heap) {
    ++scratch.proba[static_cast<std::size_t>(label)];
  }
  for (double& p : scratch.proba) p /= static_cast<double>(heap.size());
}

int Knn::predict_span(std::span<const double> x, Scratch& scratch) const {
  neighbor_proba(x, scratch);
  return static_cast<int>(
      std::max_element(scratch.proba.begin(), scratch.proba.end()) - scratch.proba.begin());
}

namespace {

/// Per-thread scratch for the one-row entry points, grown and never
/// cleared: a caller predicting one row per call would otherwise allocate
/// the query, heap and distribution buffers every time.
Knn::Scratch& thread_scratch() {
  thread_local Knn::Scratch scratch;
  return scratch;
}

}  // namespace

std::vector<double> Knn::predict_proba(const FeatureVector& x) const {
  Scratch& scratch = thread_scratch();
  neighbor_proba(x, scratch);
  return scratch.proba;
}

int Knn::predict(const FeatureVector& x) const { return predict_span(x, thread_scratch()); }

std::vector<int> Knn::predict_rows(const features::DatasetMatrix& data,
                                   std::span<const std::uint32_t> rows) const {
  std::vector<int> out(rows.size());
  parallel_for(rows.size(), /*chunk=*/16, [&](std::size_t begin, std::size_t end) {
    Scratch scratch;
    FeatureVector raw(data.cols());
    for (std::size_t i = begin; i < end; ++i) {
      data.gather_row(rows[i], raw);
      out[i] = predict_span(raw, scratch);
    }
  });
  return out;
}

int select_k_by_cross_validation(const Dataset& data, int k_max, int folds, std::uint64_t seed) {
  int best_k = 1;
  double best_acc = -1.0;
  for (int k = 1; k <= k_max; ++k) {
    Knn model(KnnConfig{k});
    const double acc = cross_val_accuracy(model, data, folds, seed);
    if (acc > best_acc) {
      best_acc = acc;
      best_k = k;
    }
  }
  return best_k;
}

}  // namespace ltefp::ml
