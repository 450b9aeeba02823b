#include "attacks/pipeline.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "attacks/replay.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace ltefp::attacks {
namespace {

int category_of_label(int label) {
  return static_cast<int>(apps::category_of(static_cast<apps::AppId>(label)));
}

}  // namespace

features::Dataset dataset_from_traces(std::span<const CollectedTrace> traces,
                                      const features::WindowConfig& window) {
  features::Dataset data;
  data.feature_names = features::feature_names();
  data.label_names.resize(apps::kNumApps);
  for (int i = 0; i < apps::kNumApps; ++i) {
    data.label_names[static_cast<std::size_t>(i)] = apps::to_string(apps::kAllApps[static_cast<std::size_t>(i)]);
  }
  // Window the traces concurrently, then append in trace order: the
  // dataset's row order is the same at any thread count.
  std::vector<std::vector<features::FeatureVector>> windows =
      parallel_map(traces.size(), [&](std::size_t i) {
        return features::extract_windows(traces[i].trace, traces[i].session_start, window);
      });
  std::size_t total = 0;
  for (const auto& w : windows) total += w.size();
  data.samples.reserve(total);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    for (auto& f : windows[i]) data.add(std::move(f), static_cast<int>(traces[i].app));
  }
  return data;
}

std::vector<CollectedTrace> collect_all_traces(const PipelineConfig& config) {
  CollectConfig collect;
  collect.op = config.op;
  collect.duration = config.trace_duration;
  collect.day = config.day;
  collect.day_jitter_range = config.session_day_range >= 0
                                 ? config.session_day_range
                                 : (config.op == lte::Operator::kLab ? 0 : 30);
  collect.background_apps = config.background_apps;
  collect.seed = config.seed;

  if (config.traces_per_app <= 0) return {};
  // One flat task per (app, session): all sessions of the campaign run
  // concurrently, not just sessions within one app. session_seed() makes
  // each task's RNG stream a pure function of its coordinates, and the
  // slot-indexed result keeps the canonical app-major order whatever order
  // the sessions are claimed in, so the result is bit-identical to the
  // serial per-app loop at any thread count.
  const auto per_app = static_cast<std::size_t>(config.traces_per_app);
  std::vector<SessionTask> tasks(static_cast<std::size_t>(apps::kNumApps) * per_app);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].app = apps::kAllApps[i / per_app];
    tasks[i].config = collect;
    tasks[i].config.seed =
        session_seed(collect.seed, tasks[i].app, static_cast<int>(i % per_app), collect.day);
  }
  return collect_sessions(tasks);
}

features::Dataset build_dataset(const PipelineConfig& config) {
  const std::vector<CollectedTrace> traces = config.replay_corpus.empty()
                                                 ? collect_all_traces(config)
                                                 : load_corpus(config.replay_corpus);
  features::WindowConfig window;
  window.window_ms = config.window_ms;
  window.link = config.link;
  return dataset_from_traces(traces, window);
}

void VoteTally::add(int label) {
  if (label < 0 || label >= apps::kNumApps) {
    throw std::out_of_range("VoteTally: predicted label " + std::to_string(label) +
                            " is not an app id");
  }
  ++votes_[static_cast<std::size_t>(label)];
  ++windows_;
}

TraceVerdict VoteTally::verdict() const {
  const auto winner = static_cast<std::size_t>(
      std::max_element(votes_.begin(), votes_.end()) - votes_.begin());
  TraceVerdict v;
  v.app = static_cast<apps::AppId>(winner);
  v.category = apps::category_of(v.app);
  v.window_count = windows_;
  v.votes = votes_[winner];
  v.confidence =
      windows_ > 0 ? static_cast<double>(v.votes) / static_cast<double>(windows_) : 0.0;
  return v;
}

TraceVerdict classify_trace(const ml::Classifier& model, const sniffer::Trace& trace,
                            TimeMs session_start, const features::WindowConfig& window) {
  VoteTally tally;
  features::Dataset window_set;
  for (auto& w : features::extract_windows(trace, session_start, window)) {
    window_set.add(std::move(w), 0);
  }
  if (!window_set.empty()) {
    // One transpose, one batch predict: the columnar engine classifies the
    // whole trace per tile (same per-window results as per-window predict).
    const features::DatasetMatrix window_matrix(window_set);
    for (const int p : model.predict_rows(window_matrix, window_matrix.all_rows())) {
      tally.add(p);
    }
  }
  return tally.verdict();
}

FingerprintPipeline::FingerprintPipeline(PipelineConfig config) : config_(config) {}

features::WindowConfig FingerprintPipeline::window_config() const {
  features::WindowConfig window;
  window.window_ms = config_.window_ms;
  window.link = config_.link;
  return window;
}

void FingerprintPipeline::train(const features::Dataset& train_set) {
  if (train_set.empty()) throw std::invalid_argument("FingerprintPipeline::train: empty dataset");
  const ml::ForestConfig forest = config_.forest;
  model_ = std::make_unique<ml::HierarchicalClassifier>(
      category_of_label, apps::kNumCategories,
      [forest]() { return std::make_unique<ml::RandomForest>(forest); });
  model_->fit(train_set);
}

TraceVerdict FingerprintPipeline::classify_trace(const sniffer::Trace& trace,
                                                 TimeMs session_start) const {
  if (!model_) throw std::logic_error("FingerprintPipeline: not trained");
  return attacks::classify_trace(*model_, trace, session_start, window_config());
}

ml::ConfusionMatrix FingerprintPipeline::evaluate(const features::Dataset& test_set) const {
  return evaluate(features::DatasetMatrix(test_set));
}

ml::ConfusionMatrix FingerprintPipeline::evaluate(
    const features::DatasetMatrix& test_matrix) const {
  if (!model_) throw std::logic_error("FingerprintPipeline: not trained");
  const auto rows = test_matrix.all_rows();
  const auto predictions = model_->predict_rows(test_matrix, rows);
  ml::ConfusionMatrix cm(apps::kNumApps);
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    cm.add(test_matrix.label(i), predictions[i]);
  }
  return cm;
}

std::vector<AppScore> scores_from_confusion(const ml::ConfusionMatrix& cm) {
  std::vector<AppScore> scores;
  scores.reserve(apps::kNumApps);
  for (int i = 0; i < apps::kNumApps; ++i) {
    AppScore s;
    s.app = apps::kAllApps[static_cast<std::size_t>(i)];
    s.f_score = cm.f_score(i);
    s.precision = cm.precision(i);
    s.recall = cm.recall(i);
    scores.push_back(s);
  }
  return scores;
}

std::vector<AppScore> run_fingerprint_experiment(const PipelineConfig& config) {
  const features::Dataset data = build_dataset(config);
  Rng rng(config.seed ^ 0xABCDEF);
  // Paper Table VIII: "Splitting of the dataset: 80% training, 20% testing".
  auto [train, test] = features::train_test_split(data, 0.8, rng);
  FingerprintPipeline pipeline(config);
  pipeline.train(train);
  return scores_from_confusion(pipeline.evaluate(test));
}

}  // namespace ltefp::attacks
