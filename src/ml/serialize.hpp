// Model persistence. The paper releases its trained model alongside the
// dataset; this module gives the Random Forest (and the standardiser) a
// stable, human-auditable text format so a fitted classifier can be
// shipped and reloaded without retraining.
//
// Format (line-oriented, whitespace-separated):
//   ltefp-rf v1
//   trees <n> classes <k>
//   tree <node_count>
//     node <feature> <threshold> <left> <right>      (internal)
//     leaf <p0> <p1> ... <p(k-1)>                    (leaf)
//   ...
#pragma once

#include <iosfwd>
#include <string>

#include "features/dataset.hpp"
#include "ml/random_forest.hpp"

namespace ltefp::ml {

/// Writes a fitted forest. Throws std::logic_error if not trained.
void save_forest(std::ostream& out, const RandomForest& forest);

/// Reads a forest previously written by save_forest. Throws
/// std::runtime_error on malformed input, including tree, node or class
/// counts above the loader's caps (checked before any allocation).
RandomForest load_forest(std::istream& in);

/// Standardiser persistence (mean/stddev rows). load_standardizer throws
/// std::runtime_error on a dimension outside [1, features::kFeatureCount].
void save_standardizer(std::ostream& out, const features::Standardizer& standardizer);
features::Standardizer load_standardizer(std::istream& in);

}  // namespace ltefp::ml
