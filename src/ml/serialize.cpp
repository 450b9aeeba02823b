#include "ml/serialize.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>

#include "features/window.hpp"

namespace ltefp::ml {
namespace {

// Header counts are untrusted and size allocations, so each is bounded
// before anything is reserved. The caps sit far above any forest this
// repo trains (by default 100 trees over the 9 apps).
constexpr int kMaxTrees = 10'000;
constexpr int kMaxClasses = 1'024;
constexpr int kMaxNodesPerTree = 1 << 20;

void expect_token(std::istream& in, const std::string& expected) {
  std::string token;
  if (!(in >> token) || token != expected) {
    throw std::runtime_error("model load: expected '" + expected + "', got '" + token + "'");
  }
}

template <typename T>
T read_value(std::istream& in, const char* what) {
  T value;
  if (!(in >> value)) throw std::runtime_error(std::string("model load: bad ") + what);
  return value;
}

}  // namespace

void save_forest(std::ostream& out, const RandomForest& forest) {
  if (forest.tree_count() == 0) throw std::logic_error("save_forest: forest not trained");
  out << "ltefp-rf v1\n";
  out << "trees " << forest.tree_count() << " classes " << forest.class_count() << "\n";
  out.precision(17);
  for (const DecisionTree& tree : forest.trees()) {
    const auto nodes = tree.export_nodes();
    out << "tree " << nodes.size() << "\n";
    for (const auto& node : nodes) {
      if (node.feature >= 0) {
        out << "node " << node.feature << ' ' << node.threshold << ' ' << node.left << ' '
            << node.right << "\n";
      } else {
        out << "leaf";
        for (const double p : node.proba) out << ' ' << p;
        out << "\n";
      }
    }
  }
}

RandomForest load_forest(std::istream& in) {
  expect_token(in, "ltefp-rf");
  expect_token(in, "v1");
  expect_token(in, "trees");
  const int tree_count = read_value<int>(in, "tree count");
  expect_token(in, "classes");
  const int classes = read_value<int>(in, "class count");
  if (tree_count <= 0 || classes <= 0) throw std::runtime_error("model load: bad header counts");
  if (tree_count > kMaxTrees || classes > kMaxClasses) {
    throw std::runtime_error("model load: " + std::to_string(tree_count) + " trees / " +
                             std::to_string(classes) + " classes exceeds the cap of " +
                             std::to_string(kMaxTrees) + " / " + std::to_string(kMaxClasses));
  }

  std::vector<DecisionTree> trees;
  trees.reserve(static_cast<std::size_t>(tree_count));
  for (int t = 0; t < tree_count; ++t) {
    expect_token(in, "tree");
    const int node_count = read_value<int>(in, "node count");
    if (node_count <= 0 || node_count > kMaxNodesPerTree) {
      throw std::runtime_error("model load: node count " + std::to_string(node_count) +
                               " outside [1, " + std::to_string(kMaxNodesPerTree) + "]");
    }
    std::vector<DecisionTree::ExportedNode> nodes;
    nodes.reserve(static_cast<std::size_t>(node_count));
    for (int i = 0; i < node_count; ++i) {
      std::string kind;
      if (!(in >> kind)) throw std::runtime_error("model load: truncated tree");
      DecisionTree::ExportedNode node;
      if (kind == "node") {
        node.feature = read_value<int>(in, "feature");
        node.threshold = read_value<double>(in, "threshold");
        node.left = read_value<int>(in, "left");
        node.right = read_value<int>(in, "right");
        if (node.feature < 0) throw std::runtime_error("model load: bad internal node feature");
      } else if (kind == "leaf") {
        node.feature = -1;
        node.proba.reserve(static_cast<std::size_t>(classes));
        for (int c = 0; c < classes; ++c) {
          node.proba.push_back(read_value<double>(in, "leaf probability"));
        }
      } else {
        throw std::runtime_error("model load: unknown node kind '" + kind + "'");
      }
      nodes.push_back(std::move(node));
    }
    trees.push_back(DecisionTree::from_nodes(std::move(nodes), classes));
  }
  return RandomForest::from_trees(std::move(trees), classes);
}

void save_standardizer(std::ostream& out, const features::Standardizer& standardizer) {
  if (!standardizer.fitted()) throw std::logic_error("save_standardizer: not fitted");
  out << "ltefp-std v1 " << standardizer.means().size() << "\n";
  out.precision(17);
  for (const double m : standardizer.means()) out << m << ' ';
  out << "\n";
  for (const double sd : standardizer.stddevs()) out << sd << ' ';
  out << "\n";
}

features::Standardizer load_standardizer(std::istream& in) {
  expect_token(in, "ltefp-std");
  expect_token(in, "v1");
  const auto dims = read_value<std::size_t>(in, "dims");
  if (dims == 0 || dims > features::kFeatureCount) {
    throw std::runtime_error("model load: standardizer dims " + std::to_string(dims) +
                             " outside [1, " + std::to_string(features::kFeatureCount) + "]");
  }
  std::vector<double> means(dims), stddevs(dims);
  for (auto& m : means) m = read_value<double>(in, "mean");
  for (auto& sd : stddevs) sd = read_value<double>(in, "stddev");
  return features::Standardizer::from_params(std::move(means), std::move(stddevs));
}

}  // namespace ltefp::ml
