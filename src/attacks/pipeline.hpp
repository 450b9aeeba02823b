// Attack I: the mobile-app fingerprinting pipeline (paper Figure 3,
// procedures 3-4: Data Preprocessing, Training and Classification).
//
// Builds labeled window datasets from collected traces, trains the
// hierarchical Random Forest (category -> app), and evaluates per-app
// precision / recall / F-score — the machinery behind Tables III, IV,
// VIII and Figures 8, 9.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "apps/app_id.hpp"
#include "attacks/collect.hpp"
#include "features/matrix.hpp"
#include "features/window.hpp"
#include "ml/hierarchical.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"

namespace ltefp::attacks {

struct PipelineConfig {
  lte::Operator op = lte::Operator::kLab;
  lte::LinkFilter link = lte::LinkFilter::kBoth;
  TimeMs window_ms = 100;          // paper's empirical window
  int traces_per_app = 3;          // sessions collected per app
  TimeMs trace_duration = minutes(10);
  std::uint64_t seed = 42;
  int day = 0;
  /// Sessions are spread over this many drift days (-1 = auto: 0 in the
  /// lab, 30 on commercial networks, mirroring the paper's six-month
  /// collection campaign).
  int session_day_range = -1;
  int background_apps = 0;
  ml::ForestConfig forest;         // defaults: 100 trees, seed 1
  /// When non-empty, build_dataset() replays sessions from this tracestore
  /// corpus directory (see attacks/replay.hpp) instead of simulating —
  /// bit-identical datasets and metrics, no re-collection cost.
  std::string replay_corpus;
};

/// Builds a labeled dataset (label = AppId index) from collected traces.
features::Dataset dataset_from_traces(std::span<const CollectedTrace> traces,
                                      const features::WindowConfig& window);

/// Runs the collection campaign for all nine apps (kAllApps order, then
/// per-app session index) — the canonical session order that corpus
/// recording and replay both preserve.
std::vector<CollectedTrace> collect_all_traces(const PipelineConfig& config);

/// Collects (or, with `replay_corpus` set, replays) traces for all nine
/// apps and windows them into a dataset.
features::Dataset build_dataset(const PipelineConfig& config);

/// Per-trace classification outcome (used by the history attack).
struct TraceVerdict {
  apps::AppId app = apps::AppId::kNetflix;
  apps::AppCategory category = apps::AppCategory::kStreaming;
  /// Fraction of windows voting for the winning app — the per-attempt
  /// "F-score" column of the paper's Table V.
  double confidence = 0.0;
  std::size_t window_count = 0;
  std::size_t votes = 0;  // windows voting for `app`
};

/// The majority vote over per-window app predictions: the one verdict rule
/// shared by classify_trace, the streaming daemon and `ltefp classify`.
/// Ties go to the lowest app id; with no windows the verdict is app 0 at
/// confidence 0.
class VoteTally {
 public:
  /// Counts one window's predicted label. Throws std::out_of_range unless
  /// 0 <= label < apps::kNumApps.
  void add(int label);

  TraceVerdict verdict() const;

 private:
  std::array<std::size_t, apps::kNumApps> votes_{};
  std::size_t windows_ = 0;
};

/// Whole-trace verdict: cuts `trace` into windows anchored at
/// `session_start`, batch-predicts them with `model` and tallies the vote.
/// Throws std::invalid_argument if `trace` is not time-ordered and
/// std::out_of_range if `model` predicts a label that is not an app id.
TraceVerdict classify_trace(const ml::Classifier& model, const sniffer::Trace& trace,
                            TimeMs session_start, const features::WindowConfig& window);

class FingerprintPipeline {
 public:
  explicit FingerprintPipeline(PipelineConfig config = {});

  /// Trains the hierarchical classifier on a labeled window dataset.
  void train(const features::Dataset& train_set);

  bool trained() const { return model_ != nullptr; }
  const PipelineConfig& config() const { return config_; }

  /// The trained classifier (nullptr before train()). The streaming daemon
  /// batch-predicts through this exact model, so online verdicts match the
  /// batch vote bit for bit.
  const ml::Classifier* model() const { return model_.get(); }

  /// Whole-trace verdict by majority vote over windows.
  TraceVerdict classify_trace(const sniffer::Trace& trace, TimeMs session_start) const;

  /// Confusion matrix over a labeled test set (9 app classes).
  ml::ConfusionMatrix evaluate(const features::Dataset& test_set) const;

  /// Columnar variant: evaluates every row of an already-transposed test
  /// matrix (batch block traversal, no per-sample feature gathers). The
  /// Dataset overload delegates here; callers that evaluate the same test
  /// set repeatedly (sustained monitoring) should transpose once and reuse.
  ml::ConfusionMatrix evaluate(const features::DatasetMatrix& test_matrix) const;

  features::WindowConfig window_config() const;

 private:
  PipelineConfig config_;
  std::unique_ptr<ml::HierarchicalClassifier> model_;
};

/// One row of the paper's per-app metric tables.
struct AppScore {
  apps::AppId app = apps::AppId::kNetflix;
  double f_score = 0.0;
  double precision = 0.0;
  double recall = 0.0;
};

/// Collect -> split 80/20 -> train -> test, returning per-app scores; the
/// single-call driver used by the table benches.
std::vector<AppScore> run_fingerprint_experiment(const PipelineConfig& config);

/// Extracts per-app scores from a confusion matrix (apps in kAllApps order).
std::vector<AppScore> scores_from_confusion(const ml::ConfusionMatrix& cm);

}  // namespace ltefp::attacks
