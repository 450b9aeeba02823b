#include "bench.hpp"

#include <algorithm>
#include <utility>

#include "attacks/pipeline.hpp"
#include "common/parallel.hpp"
#include "trace.hpp"

namespace e2e {

using namespace ltefp;

void Recorder::rep(const std::string& name, const char* unit, double value) {
  Series& s = reps_[name];
  s.unit = unit;
  s.values.push_back(value);
  ++s.samples;
}

void Recorder::latencies(const std::string& name, const char* unit, std::vector<double> values) {
  pending_[name] = Series{unit, std::move(values), 0};
}

void Recorder::count(const std::string& name, const char* unit, double value) {
  counts_[name] = Series{unit, {value}, 1};
}

void Recorder::close_rep() {
  for (auto& [name, s] : pending_) {
    if (s.values.empty()) continue;
    for (const auto& [suffix, q] : {std::pair{"_p50_", 0.50}, std::pair{"_p99_", 0.99}}) {
      Series& out = reps_[name + suffix + s.unit];
      out.unit = s.unit;
      out.values.push_back(quantile(s.values, q));
      out.samples += s.values.size();
    }
  }
  pending_.clear();
}

void start_pool(int threads) {
  set_thread_count(threads);
  parallel_for(static_cast<std::size_t>(threads), 1, [](std::size_t, std::size_t) {});
}

std::unique_ptr<ml::RandomForest> train_daemon_forest(std::uint64_t seed, int traces_per_app,
                                                      std::int64_t trace_ms, int trees) {
  attacks::PipelineConfig config;
  config.op = lte::Operator::kTmobile;
  config.traces_per_app = traces_per_app;
  config.trace_duration = trace_ms;
  config.seed = seed;
  const auto traces = attacks::collect_all_traces(config);
  const features::Dataset data = attacks::dataset_from_traces(traces, features::WindowConfig{});
  ml::ForestConfig forest;
  forest.num_trees = trees;
  forest.seed = seed;
  auto model = std::make_unique<ml::RandomForest>(forest);
  model->fit(data);
  return model;
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace e2e
