#include "ml/decision_tree.hpp"

#include <algorithm>
#include <bit>
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

void DecisionTree::fit(const features::DatasetMatrix& data,
                       std::span<const std::size_t> indices, int num_classes) {
  if (indices.empty()) throw std::invalid_argument("DecisionTree::fit: no samples");
  if (num_classes <= 0) throw std::invalid_argument("DecisionTree::fit: bad class count");
  // Labels index the class-count and histogram buffers: check every one
  // the tree will read before building.
  const std::span<const int> row_labels = data.labels();
  for (const std::size_t row : indices) {
    if (row >= row_labels.size()) throw std::invalid_argument("DecisionTree::fit: row out of range");
    if (row_labels[row] < 0 || row_labels[row] >= num_classes) {
      throw std::invalid_argument("DecisionTree::fit: label outside [0, num_classes)");
    }
  }
  nodes_.clear();
  matrix_ = &data;

  const std::size_t n = indices.size();
  const auto classes = static_cast<std::size_t>(num_classes);
  const auto candidates = static_cast<std::size_t>(std::max(1, config_.threshold_candidates));
  // Smallest power of two above the candidate count: the bucket search
  // always has at least one +inf pad, so every step is in bounds.
  const std::size_t padded = std::bit_ceil(candidates + 1);
  FitScratch& s = scratch_;
  s.idx.resize(n);
  for (std::size_t i = 0; i < n; ++i) s.idx[i] = static_cast<std::uint32_t>(indices[i]);
  s.labels.resize(n);
  s.values.resize(n);
  s.counts.resize(classes);
  s.left_counts.resize(classes);
  s.right_counts.resize(classes);
  s.threshold.resize(candidates);
  s.order.resize(candidates);
  s.score.resize(candidates);
  s.sorted.assign(padded, std::numeric_limits<double>::infinity());
  s.hist.resize(padded * classes);
  s.running.resize(classes);
  s.bucket = select_bucket_kernel();

  build(0, n, 0);

  matrix_ = nullptr;
  scratch_ = FitScratch{};
}

int DecisionTree::build(std::size_t begin, std::size_t end, int depth) {
  FitScratch& s = scratch_;
  const std::size_t n = end - begin;
  const std::size_t classes = s.counts.size();
  const std::span<const int> row_labels = matrix_->labels();
  std::fill(s.counts.begin(), s.counts.end(), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    s.labels[i] = row_labels[s.idx[begin + i]];
    ++s.counts[static_cast<std::size_t>(s.labels[i])];
  }
  const double node_gini = gini_from_counts(s.counts, static_cast<double>(n));

  const auto make_leaf = [&]() {
    Node leaf;
    leaf.depth = depth;
    leaf.proba.resize(classes);
    for (std::size_t c = 0; c < classes; ++c) {
      leaf.proba[c] = s.counts[c] / static_cast<double>(n);
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
  s.tried.resize(dims);
  std::iota(s.tried.begin(), s.tried.end(), std::size_t{0});
  if (config_.mtry > 0 && static_cast<std::size_t>(config_.mtry) < dims) {
    rng_.shuffle(s.tried);
    s.tried.resize(static_cast<std::size_t>(config_.mtry));
  }

  int best_feature = -1;
  double best_threshold = 0.0;
  double best_score = node_gini;  // must strictly improve
  const std::size_t candidates = s.threshold.size();
  const std::size_t padded = s.sorted.size();
  const Rng::IndexBounds node_rows(n);

  for (const std::size_t f : s.tried) {
    const double* col = matrix_->column(f).data();
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      const double v = col[s.idx[begin + i]];
      s.values[i] = v;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    if (!(hi > lo)) continue;  // constant feature in this node

    // Draw the candidate thresholds exactly as the historical trainer
    // did: midpoints between two random node values concentrate
    // candidates where the data mass is.
    for (std::size_t c = 0; c < candidates; ++c) {
      const double a = s.values[rng_.index(node_rows)];
      const double b = s.values[rng_.index(node_rows)];
      s.threshold[c] = a == b ? (a + lo + (hi - lo) * rng_.uniform()) / 2.0 : (a + b) / 2.0;
    }

    // Rank the candidates by threshold, ties by candidate index: a stable
    // counting sort, whose C^2 branch-free compares beat a comparison sort
    // at the few dozen candidates a node draws. A NaN candidate (from a NaN
    // value, or from +inf plus -inf) sends every value right, so it is
    // never accepted: it gets no rank and a +inf score, which keeps the
    // ranked thresholds non-decreasing and NaN-free for the bucket kernel.
    std::size_t ordered = 0;
    for (std::size_t c = 0; c < candidates; ++c) {
      const double t = s.threshold[c];
      if (std::isnan(t)) {
        s.score[c] = std::numeric_limits<double>::infinity();
        continue;
      }
      std::size_t r = 0;
      for (std::size_t d = 0; d < c; ++d) r += s.threshold[d] <= t ? 1 : 0;
      for (std::size_t d = c + 1; d < candidates; ++d) r += s.threshold[d] < t ? 1 : 0;
      s.order[r] = c;
      s.sorted[r] = t;
      ++ordered;
    }
    std::fill(s.sorted.begin() + static_cast<std::ptrdiff_t>(ordered),
              s.sorted.begin() + static_cast<std::ptrdiff_t>(candidates),
              std::numeric_limits<double>::infinity());

    // Bucket each value by how many ranked thresholds lie below it: the
    // value goes left of the rank-r candidate exactly when its bucket is
    // <= r, and a NaN value lands past every rank (ml/split_kernels.hpp).
    std::fill(s.hist.begin(), s.hist.end(), 0u);
    s.bucket({.values = s.values.data(),
              .labels = s.labels.data(),
              .n = n,
              .sorted = s.sorted.data(),
              .ordered = ordered,
              .padded = padded,
              .hist = s.hist.data(),
              .classes = classes});

    // Sweep the buckets in threshold order: after adding bucket r, the
    // running counts are the left class counts of the rank-r candidate.
    std::fill(s.running.begin(), s.running.end(), 0u);
    std::uint32_t n_running = 0;
    for (std::size_t r = 0; r < ordered; ++r) {
      const std::uint32_t* bucket = s.hist.data() + r * classes;
      for (std::size_t k = 0; k < classes; ++k) {
        s.running[k] += bucket[k];
        n_running += bucket[k];
      }
      const double n_left = static_cast<double>(n_running);
      const double n_right = static_cast<double>(n) - n_left;
      double score = std::numeric_limits<double>::infinity();  // never accepted
      if (n_left >= config_.min_samples_leaf && n_right >= config_.min_samples_leaf) {
        for (std::size_t k = 0; k < classes; ++k) {
          s.left_counts[k] = static_cast<double>(s.running[k]);
          s.right_counts[k] = s.counts[k] - s.left_counts[k];
        }
        score = (n_left * gini_from_counts(s.left_counts, n_left) +
                 n_right * gini_from_counts(s.right_counts, n_right)) /
                static_cast<double>(n);
      }
      s.score[s.order[r]] = score;
    }

    // Accept in the original candidate order so best-so-far tie behaviour
    // matches the per-candidate trainer exactly.
    for (std::size_t c = 0; c < candidates; ++c) {
      if (s.score[c] + 1e-12 < best_score) {
        best_score = s.score[c];
        best_feature = static_cast<int>(f);
        best_threshold = s.threshold[c];
      }
    }
  }

  if (best_feature < 0) return make_leaf();

  // Partition the node-order rows in place (split predicate and
  // permutation identical to the historical trainer).
  const double* best_col = matrix_->column(static_cast<std::size_t>(best_feature)).data();
  const auto mid_it = std::partition(
      s.idx.begin() + static_cast<std::ptrdiff_t>(begin),
      s.idx.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::uint32_t id) { return best_col[id] <= best_threshold; });
  const auto mid = static_cast<std::size_t>(mid_it - s.idx.begin());
  if (mid == begin || mid == end) return make_leaf();  // degenerate split

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

const std::vector<double>& DecisionTree::predict_proba(const features::FeatureVector& x) const {
  return leaf_for(x).proba;
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
