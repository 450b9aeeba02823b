#include "ml/flat_forest.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <stdexcept>

#include "common/parallel.hpp"
#include "ml/flat_forest_kernels.hpp"

namespace ltefp::ml {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Rows per batch: one traversal tile / leaf-id block. Results do not
/// depend on batching — every row is computed independently.
constexpr std::size_t kBatch = kTileRows;

/// Tree-outer vote accumulation per row: every (row, class) accumulator
/// receives its additions in tree order 0..T-1, the order of
/// RandomForest::predict_proba. Divide BEFORE the argmax (rounding can
/// merge distinct sums), and take the FIRST maximum — exactly the
/// std::max_element of Classifier::predict. Templating on
/// the class count lets the compiler unroll the per-tree adds for the
/// small counts every real model has; the arithmetic is identical.
template <std::size_t C>
void accumulate_batch(const std::int32_t* leaf, const std::int32_t* proba_off,
                      const double* leaf_proba, std::size_t n_trees,
                      std::size_t bs, int* out) {
  const double tree_count_d = static_cast<double>(n_trees);
  double acc[C];
  for (std::size_t k = 0; k < bs; ++k) {
    for (std::size_t c = 0; c < C; ++c) acc[c] = 0.0;
    for (std::size_t t = 0; t < n_trees; ++t) {
      const double* votes =
          leaf_proba + static_cast<std::size_t>(proba_off[leaf[t * kBatch + k]]);
      for (std::size_t c = 0; c < C; ++c) acc[c] += votes[c];
    }
    std::size_t best = 0;
    for (std::size_t c = 0; c < C; ++c) {
      acc[c] /= tree_count_d;
      if (acc[c] > acc[best]) best = c;
    }
    out[k] = static_cast<int>(best);
  }
}

/// Runtime-class-count fallback: same arithmetic, heap accumulator.
void accumulate_batch_generic(const std::int32_t* leaf,
                              const std::int32_t* proba_off,
                              const double* leaf_proba, std::size_t n_trees,
                              std::size_t n_classes, std::size_t bs, int* out,
                              double* acc) {
  const double tree_count_d = static_cast<double>(n_trees);
  for (std::size_t k = 0; k < bs; ++k) {
    for (std::size_t c = 0; c < n_classes; ++c) acc[c] = 0.0;
    for (std::size_t t = 0; t < n_trees; ++t) {
      const double* votes =
          leaf_proba + static_cast<std::size_t>(proba_off[leaf[t * kBatch + k]]);
      for (std::size_t c = 0; c < n_classes; ++c) acc[c] += votes[c];
    }
    std::size_t best = 0;
    for (std::size_t c = 0; c < n_classes; ++c) {
      acc[c] /= tree_count_d;
      if (acc[c] > acc[best]) best = c;
    }
    out[k] = static_cast<int>(best);
  }
}

}  // namespace

FlatForest FlatForest::build(std::span<const DecisionTree> trees, int num_classes) {
  if (trees.empty()) throw std::invalid_argument("FlatForest::build: no trees");
  if (num_classes <= 0) throw std::invalid_argument("FlatForest::build: bad class count");

  FlatForest f;
  f.num_classes_ = num_classes;
  f.root_.reserve(trees.size());
  f.levels_.reserve(trees.size());

  std::size_t total_nodes = 0;
  for (const DecisionTree& tree : trees) {
    if (!tree.trained()) throw std::invalid_argument("FlatForest::build: untrained tree");
    total_nodes += static_cast<std::size_t>(tree.node_count());
  }
  if (total_nodes > static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()))
    throw std::invalid_argument("FlatForest::build: arena exceeds int32 node ids");
  f.meta_.reserve(total_nodes);
  f.threshold_.reserve(total_nodes);
  f.proba_off_.reserve(total_nodes);

  std::vector<std::int32_t> order;   // old export ids in BFS visit order
  std::vector<std::int32_t> new_id;  // old export id -> BFS id (-1 unvisited)
  std::vector<std::int32_t> depth;   // per BFS position
  for (const DecisionTree& tree : trees) {
    const auto nodes = tree.export_nodes();
    const std::int32_t base = static_cast<std::int32_t>(f.meta_.size());

    // Breadth-first renumbering from the root (export index 0): a node's
    // children get consecutive BFS ids, so left = right - 1 and the arena
    // needs only the right id. Revisiting a node means the exported graph
    // shares subtrees or cycles — reject it. Unreachable exported nodes
    // are simply never visited (and never traversed), so they are dropped.
    order.assign(1, 0);
    new_id.assign(nodes.size(), -1);
    depth.assign(1, 0);
    new_id[0] = 0;
    std::int32_t levels = 0;
    for (std::size_t qi = 0; qi < order.size(); ++qi) {
      const DecisionTree::ExportedNode& node =
          nodes[static_cast<std::size_t>(order[qi])];
      if (node.feature < 0) {
        levels = std::max(levels, depth[qi]);
        continue;
      }
      if (new_id[static_cast<std::size_t>(node.left)] != -1 ||
          new_id[static_cast<std::size_t>(node.right)] != -1)
        throw std::invalid_argument("FlatForest::build: node graph is not a tree");
      new_id[static_cast<std::size_t>(node.left)] =
          static_cast<std::int32_t>(order.size());
      order.push_back(node.left);
      new_id[static_cast<std::size_t>(node.right)] =
          static_cast<std::int32_t>(order.size());
      order.push_back(node.right);
      depth.push_back(depth[qi] + 1);
      depth.push_back(depth[qi] + 1);
    }

    for (std::size_t qi = 0; qi < order.size(); ++qi) {
      const DecisionTree::ExportedNode& node =
          nodes[static_cast<std::size_t>(order[qi])];
      const std::int32_t id = base + static_cast<std::int32_t>(qi);
      if (node.feature < 0) {
        // Leaf: right = self and threshold = -inf, so x <= threshold is
        // false for EVERY value — finite, infinite or NaN — and the step
        // re-selects the leaf forever. Column 0 keeps the value load in
        // bounds; the loaded value never matters.
        f.meta_.push_back(static_cast<std::int64_t>(id) << 32);
        f.threshold_.push_back(kNegInf);
        f.proba_off_.push_back(static_cast<std::int32_t>(f.leaf_proba_.size()));
        const std::size_t copy =
            std::min(node.proba.size(), static_cast<std::size_t>(num_classes));
        f.leaf_proba_.insert(f.leaf_proba_.end(), node.proba.begin(),
                             node.proba.begin() + static_cast<std::ptrdiff_t>(copy));
        f.leaf_proba_.resize(f.leaf_proba_.size() + (num_classes - copy), 0.0);
      } else {
        const std::int32_t right =
            base + new_id[static_cast<std::size_t>(node.left)] + 1;
        f.meta_.push_back((static_cast<std::int64_t>(right) << 32) |
                          static_cast<std::uint32_t>(node.feature));
        f.threshold_.push_back(node.threshold);
        f.proba_off_.push_back(0);
        f.max_feature_ = std::max(f.max_feature_, node.feature);
      }
    }
    f.root_.push_back(base);
    f.levels_.push_back(levels);
  }
  return f;
}

std::vector<int> FlatForest::predict_rows(const features::DatasetMatrix& data,
                                          std::span<const std::uint32_t> rows) const {
  if (!trained()) throw std::logic_error("FlatForest: not built");
  if (max_feature_ >= 0 && static_cast<std::size_t>(max_feature_) >= data.cols())
    throw std::invalid_argument("FlatForest::predict_rows: matrix is missing features");

  const std::size_t n_rows = data.rows();
  const std::size_t cols = data.cols();
  const double* values = cols > 0 ? data.column(0).data() : nullptr;
  const std::size_t n_classes = static_cast<std::size_t>(num_classes_);
  const std::size_t n_trees = root_.size();

  std::vector<int> out(rows.size());
  const ForestKernels kern = select_forest_kernels();

  // Batch-aligned chunks, ~4 per worker for balance.
  const std::size_t workers = static_cast<std::size_t>(thread_count());
  const std::size_t per_worker = (rows.size() + workers * 4 - 1) / (workers * 4);
  const std::size_t chunk =
      std::max(kBatch, (per_worker + kBatch - 1) / kBatch * kBatch);

  // Slot-indexed outputs only: bit-identical at any thread count.
  parallel_for(rows.size(), chunk, [&](std::size_t begin, std::size_t end) {
    // Per-thread scratch, grown and never cleared: a streaming caller
    // predicts a row or two per call, and allocating plus zero-filling a
    // tile and a leaf block each time cost more than the traversal.
    // Column-major tile: feature f of batch row k at tile[f*kTileRows+k].
    // Rows past the current batch size keep stale values from an earlier
    // batch; lo/count stop the kernels from ever reading them.
    thread_local std::vector<double> tile;
    thread_local std::vector<std::int32_t> leaf;
    thread_local std::vector<double> acc;
    tile.resize(std::max(tile.size(), std::max<std::size_t>(cols, 1) * kTileRows));
    leaf.resize(std::max(leaf.size(), n_trees * kBatch));
    acc.resize(std::max(acc.size(), n_classes));
    for (std::size_t b0 = begin; b0 < end; b0 += kBatch) {
      const std::size_t bs = std::min(kBatch, end - b0);
      // Pack the batch's features: per column this reads one gathered
      // stripe of the matrix and writes one contiguous stripe of the tile,
      // after which every traversal load hits the hot tile.
      for (std::size_t f = 0; f < cols; ++f) {
        const double* col = values + f * n_rows;
        double* dst = tile.data() + f * kTileRows;
        for (std::size_t k = 0; k < bs; ++k) dst[k] = col[rows[b0 + k]];
      }

      TraverseArgs args;
      args.meta = meta_.data();
      args.threshold = threshold_.data();
      args.tile = tile.data();
      args.count = bs;
      args.roots = root_.data();
      args.levels = levels_.data();
      args.tree_count = n_trees;
      args.node_out = leaf.data();
      kern.traverse(args);

      switch (n_classes) {
        case 2:
          accumulate_batch<2>(leaf.data(), proba_off_.data(),
                              leaf_proba_.data(), n_trees, bs, out.data() + b0);
          break;
        case 3:
          accumulate_batch<3>(leaf.data(), proba_off_.data(),
                              leaf_proba_.data(), n_trees, bs, out.data() + b0);
          break;
        case 4:
          accumulate_batch<4>(leaf.data(), proba_off_.data(),
                              leaf_proba_.data(), n_trees, bs, out.data() + b0);
          break;
        default:
          accumulate_batch_generic(leaf.data(), proba_off_.data(),
                                   leaf_proba_.data(), n_trees, n_classes, bs,
                                   out.data() + b0, acc.data());
          break;
      }
    }
  });
  return out;
}

}  // namespace ltefp::ml
