#include "ml/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace ltefp::ml {
namespace {

double gini_from_counts(std::span<const double> counts, double total) {
  if (total <= 0.0) return 0.0;
  double sum_sq = 0.0;
  for (double c : counts) sum_sq += c * c;
  return 1.0 - sum_sq / (total * total);
}

}  // namespace

DecisionTree::DecisionTree(TreeConfig config, std::uint64_t seed)
    : config_(config), rng_(seed) {}

void DecisionTree::fit(const features::DatasetMatrix& data, int num_classes) {
  std::vector<std::size_t> indices(data.rows());
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  fit(data, indices, num_classes);
}

void DecisionTree::fit(const features::Dataset& data, int num_classes) {
  fit(features::DatasetMatrix(data), num_classes);
}

void DecisionTree::fit(const features::Dataset& data, std::span<const std::size_t> indices,
                       int num_classes) {
  fit(features::DatasetMatrix(data), indices, num_classes);
}

void DecisionTree::fit(const features::DatasetMatrix& data,
                       std::span<const std::size_t> indices, int num_classes) {
  if (indices.empty()) throw std::invalid_argument("DecisionTree::fit: no samples");
  if (num_classes <= 0) throw std::invalid_argument("DecisionTree::fit: bad class count");
  nodes_.clear();
  num_classes_ = num_classes;
  matrix_ = &data;
  total_n_ = indices.size();
  idx_.assign(indices.begin(), indices.end());

  const std::size_t rows = data.rows();
  const std::size_t dims = data.cols();

  // Expand the dataset-wide per-column argsort through this fit's
  // bootstrap multiplicities: one counting pass per feature replaces a
  // per-tree O(n log n) sort per column. Duplicated entries land adjacent
  // (same value), which is all the sweep needs.
  boot_mult_.assign(rows, 0);
  for (const std::size_t id : idx_) ++boot_mult_[id];
  sorted_.resize(dims * total_n_);
  for (std::size_t f = 0; f < dims; ++f) {
    const auto order = data.sorted_order(f);
    std::uint32_t* out = sorted_.data() + f * total_n_;
    for (const std::uint32_t id : order) {
      for (std::uint32_t r = boot_mult_[id]; r > 0; --r) *out++ = id;
    }
  }
  part_scratch_.resize(total_n_);
  left_mask_.assign(rows, 0);

  build(0, idx_.size(), 0);

  // Release fit-scoped scratch: forests keep many trained trees around.
  matrix_ = nullptr;
  std::vector<std::size_t>().swap(idx_);
  std::vector<std::uint32_t>().swap(sorted_);
  std::vector<std::uint32_t>().swap(part_scratch_);
  std::vector<std::uint32_t>().swap(boot_mult_);
  std::vector<unsigned char>().swap(left_mask_);
}

int DecisionTree::build(std::size_t begin, std::size_t end, int depth) {
  const std::size_t n = end - begin;
  const std::span<const int> labels = matrix_->labels();
  std::vector<double> counts(static_cast<std::size_t>(num_classes_), 0.0);
  for (std::size_t i = begin; i < end; ++i) {
    ++counts[static_cast<std::size_t>(labels[idx_[i]])];
  }
  const double node_gini = gini_from_counts(counts, static_cast<double>(n));

  const auto make_leaf = [&]() {
    Node leaf;
    leaf.depth = depth;
    leaf.proba.resize(counts.size());
    for (std::size_t c = 0; c < counts.size(); ++c) {
      leaf.proba[c] = counts[c] / static_cast<double>(n);
    }
    const int id = static_cast<int>(nodes_.size());
    nodes_.push_back(std::move(leaf));
    return id;
  };

  if (depth >= config_.max_depth || n < static_cast<std::size_t>(config_.min_samples_split) ||
      node_gini <= 1e-12) {
    return make_leaf();
  }

  const std::size_t dims = matrix_->cols();
  // Choose the features to try at this node.
  std::vector<std::size_t> tried(dims);
  std::iota(tried.begin(), tried.end(), std::size_t{0});
  if (config_.mtry > 0 && static_cast<std::size_t>(config_.mtry) < dims) {
    rng_.shuffle(tried);
    tried.resize(static_cast<std::size_t>(config_.mtry));
  }

  int best_feature = -1;
  double best_threshold = 0.0;
  double best_score = node_gini;  // must strictly improve
  std::vector<double> left_counts(counts.size());
  std::vector<double> right_counts(counts.size());

  const int candidates = std::max(1, config_.threshold_candidates);
  cand_threshold_.resize(static_cast<std::size_t>(candidates));
  cand_order_.resize(static_cast<std::size_t>(candidates));
  cand_left_counts_.resize(static_cast<std::size_t>(candidates) * counts.size());
  cand_n_left_.resize(static_cast<std::size_t>(candidates));

  for (const std::size_t f : tried) {
    const double* col = matrix_->column(f).data();
    const std::uint32_t* srt = sorted_.data() + f * total_n_ + begin;
    // The node's sorted order hands us the value range for free.
    const double lo = col[srt[0]];
    const double hi = col[srt[n - 1]];
    if (!(hi > lo)) continue;  // constant feature in this node

    // Draw the candidate thresholds exactly as the historical trainer
    // did: midpoints between two random node values concentrate
    // candidates where the data mass is. Node positions index idx_, so
    // the draws (and the RNG stream) are independent of the presort.
    for (int c = 0; c < candidates; ++c) {
      const double a = col[idx_[begin + rng_.index(n)]];
      const double b = col[idx_[begin + rng_.index(n)]];
      cand_threshold_[static_cast<std::size_t>(c)] =
          a == b ? (a + lo + (hi - lo) * rng_.uniform()) / 2.0 : (a + b) / 2.0;
    }

    // One incremental class-count sweep over the node's sorted order
    // scores every candidate: visit candidates by ascending threshold,
    // advancing a single frontier instead of recounting the node per
    // candidate.
    std::iota(cand_order_.begin(), cand_order_.end(), 0);
    std::sort(cand_order_.begin(), cand_order_.end(), [this](int x, int y) {
      const double tx = cand_threshold_[static_cast<std::size_t>(x)];
      const double ty = cand_threshold_[static_cast<std::size_t>(y)];
      return tx < ty || (tx == ty && x < y);
    });
    running_counts_.assign(counts.size(), 0);
    std::size_t pos = 0;
    for (const int c : cand_order_) {
      const double threshold = cand_threshold_[static_cast<std::size_t>(c)];
      while (pos < n && col[srt[pos]] <= threshold) {
        ++running_counts_[static_cast<std::size_t>(labels[srt[pos]])];
        ++pos;
      }
      double* snap = cand_left_counts_.data() + static_cast<std::size_t>(c) * counts.size();
      for (std::size_t k = 0; k < counts.size(); ++k) {
        snap[k] = static_cast<double>(running_counts_[k]);
      }
      cand_n_left_[static_cast<std::size_t>(c)] = static_cast<double>(pos);
    }

    // Score in the original candidate order so best-so-far tie behaviour
    // matches the per-candidate trainer exactly.
    for (int c = 0; c < candidates; ++c) {
      const double n_left = cand_n_left_[static_cast<std::size_t>(c)];
      const double n_right = static_cast<double>(n) - n_left;
      if (n_left < config_.min_samples_leaf || n_right < config_.min_samples_leaf) continue;
      const double* snap =
          cand_left_counts_.data() + static_cast<std::size_t>(c) * counts.size();
      for (std::size_t k = 0; k < counts.size(); ++k) {
        left_counts[k] = snap[k];
        right_counts[k] = counts[k] - snap[k];
      }
      const double score = (n_left * gini_from_counts(left_counts, n_left) +
                            n_right * gini_from_counts(right_counts, n_right)) /
                           static_cast<double>(n);
      if (score + 1e-12 < best_score) {
        best_score = score;
        best_feature = static_cast<int>(f);
        best_threshold = cand_threshold_[static_cast<std::size_t>(c)];
      }
    }
  }

  if (best_feature < 0) return make_leaf();

  // Partition the node-order entries in place (split predicate and
  // permutation identical to the historical trainer).
  const double* best_col = matrix_->column(static_cast<std::size_t>(best_feature)).data();
  const auto mid_it = std::partition(
      idx_.begin() + static_cast<std::ptrdiff_t>(begin),
      idx_.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t id) { return best_col[id] <= best_threshold; });
  const auto mid = static_cast<std::size_t>(mid_it - idx_.begin());
  if (mid == begin || mid == end) return make_leaf();  // degenerate split

  // Maintain the per-feature sorted partitions: a stable partition keeps
  // each side sorted. Side membership is a per-row bit (duplicated
  // bootstrap entries share it), read off the already-partitioned idx_.
  for (std::size_t i = begin; i < mid; ++i) left_mask_[idx_[i]] = 1;
  for (std::size_t i = mid; i < end; ++i) left_mask_[idx_[i]] = 0;
  for (std::size_t f = 0; f < dims; ++f) {
    std::uint32_t* block = sorted_.data() + f * total_n_ + begin;
    std::size_t write = 0, spill = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint32_t id = block[j];
      if (left_mask_[id]) {
        block[write++] = id;
      } else {
        part_scratch_[spill++] = id;
      }
    }
    std::copy(part_scratch_.begin(),
              part_scratch_.begin() + static_cast<std::ptrdiff_t>(spill), block + write);
  }

  Node node;
  node.feature = best_feature;
  node.threshold = best_threshold;
  node.depth = depth;
  const int id = static_cast<int>(nodes_.size());
  nodes_.push_back(std::move(node));
  const int left = build(begin, mid, depth + 1);
  const int right = build(mid, end, depth + 1);
  nodes_[static_cast<std::size_t>(id)].left = left;
  nodes_[static_cast<std::size_t>(id)].right = right;
  return id;
}

const DecisionTree::Node& DecisionTree::leaf_for(const features::FeatureVector& x) const {
  if (nodes_.empty()) throw std::logic_error("DecisionTree: not trained");
  const Node* node = &nodes_.front();
  while (node->feature >= 0) {
    const std::size_t f = static_cast<std::size_t>(node->feature);
    if (f >= x.size()) throw std::invalid_argument("DecisionTree: feature dim mismatch");
    node = &nodes_[static_cast<std::size_t>(x[f] <= node->threshold ? node->left : node->right)];
  }
  return *node;
}

int DecisionTree::predict(const features::FeatureVector& x) const {
  const auto& proba = leaf_for(x).proba;
  return static_cast<int>(std::max_element(proba.begin(), proba.end()) - proba.begin());
}

const std::vector<double>& DecisionTree::predict_proba(const features::FeatureVector& x) const {
  return leaf_for(x).proba;
}

const std::vector<double>& DecisionTree::predict_proba_row(
    const features::DatasetMatrix& data, std::size_t row) const {
  if (nodes_.empty()) throw std::logic_error("DecisionTree: not trained");
  const Node* node = &nodes_.front();
  while (node->feature >= 0) {
    const std::size_t f = static_cast<std::size_t>(node->feature);
    if (f >= data.cols()) throw std::invalid_argument("DecisionTree: feature dim mismatch");
    node = &nodes_[static_cast<std::size_t>(data.at(row, f) <= node->threshold ? node->left
                                                                               : node->right)];
  }
  return node->proba;
}

std::vector<DecisionTree::ExportedNode> DecisionTree::export_nodes() const {
  std::vector<ExportedNode> out;
  out.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    ExportedNode e;
    e.feature = node.feature;
    e.threshold = node.threshold;
    e.left = node.left;
    e.right = node.right;
    e.proba = node.proba;
    out.push_back(std::move(e));
  }
  return out;
}

DecisionTree DecisionTree::from_nodes(std::vector<ExportedNode> nodes, int num_classes) {
  if (nodes.empty()) throw std::invalid_argument("DecisionTree::from_nodes: no nodes");
  if (num_classes <= 0) throw std::invalid_argument("DecisionTree::from_nodes: bad class count");
  DecisionTree tree;
  tree.num_classes_ = num_classes;
  tree.nodes_.reserve(nodes.size());
  const int n = static_cast<int>(nodes.size());
  for (auto& e : nodes) {
    if (e.feature >= 0) {
      if (e.left < 0 || e.left >= n || e.right < 0 || e.right >= n) {
        throw std::invalid_argument("DecisionTree::from_nodes: child index out of range");
      }
    } else if (e.proba.size() != static_cast<std::size_t>(num_classes)) {
      throw std::invalid_argument("DecisionTree::from_nodes: leaf distribution size mismatch");
    }
    Node node;
    node.feature = e.feature;
    node.threshold = e.threshold;
    node.left = e.left;
    node.right = e.right;
    node.proba = std::move(e.proba);
    node.depth = -1;  // not reached yet
    tree.nodes_.push_back(std::move(node));
  }
  // One walk from the root sets every node's depth and proves the nodes
  // form a single tree: each is reached exactly once, so prediction and
  // FlatForest::build terminate.
  tree.nodes_[0].depth = 0;
  std::vector<int> stack{0};
  std::size_t reached = 1;
  while (!stack.empty()) {
    const Node& node = tree.nodes_[static_cast<std::size_t>(stack.back())];
    stack.pop_back();
    if (node.feature < 0) continue;
    for (const int child : {node.left, node.right}) {
      Node& c = tree.nodes_[static_cast<std::size_t>(child)];
      if (c.depth >= 0) throw std::invalid_argument("DecisionTree::from_nodes: not a tree");
      c.depth = node.depth + 1;
      ++reached;
      stack.push_back(child);
    }
  }
  if (reached != tree.nodes_.size()) {
    throw std::invalid_argument("DecisionTree::from_nodes: node unreachable from the root");
  }
  return tree;
}

int DecisionTree::depth() const {
  int d = 0;
  for (const auto& node : nodes_) d = std::max(d, node.depth);
  return d;
}

}  // namespace ltefp::ml
