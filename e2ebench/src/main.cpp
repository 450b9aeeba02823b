// e2ebench: the end-to-end attack benchmark.
//
//   e2ebench --workload city_live|corpus_forensics|campaign --seed N
//            --seconds S --trace 0|1 [--size full|smoke]
//            [--work DIR] [--spans FILE]
//
// Untraced (--trace 0): repeats set-up + timed phase until S seconds have
// passed (at least three times), then runs the output checks once on the
// last repetition. Repetition i works on input i mod kInputs, each input
// derived from the seed, so a run's medians average over several inputs
// instead of resting on one draw; a repeated input must repeat its output
// digest. Every timing is reported as a median with its sample count.
// Traced (--trace 1): two untraced repetitions as the baseline, then one
// traced repetition at nproc threads and one at a single thread, all on input
// 0; the spans give each layer's self time, its share of wall time and its
// parallel efficiency. Human-readable tables go to stdout; the last line
// is the whole result as one JSON object (run.py turns it into the
// benchmark's result line and result file).
#include <sched.h>
#include <sys/resource.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "common/cpu.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "trace.hpp"

namespace e2e {
namespace {

using namespace ltefp;

constexpr int kMinReps = 3;
constexpr int kMaxReps = 100;
constexpr int kTracedBaselineReps = 2;
/// Distinct inputs an untraced run cycles through.
constexpr std::uint64_t kInputs = 8;

/// Per-layer metrics every traced run reports, in output order. Metrics of
/// a layer the workload does not exercise read 0 with a sample count of 0.
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"lte.step_ms", "ms"},           {"lte.step_p99_us", "us"},
    {"lte.ue_events", "count"},      {"lte.subframes", "count"},
    {"sniffer.decode_ms", "ms"},     {"sniffer.records", "count"},
    {"sniffer.paging", "count"},     {"sniffer.identity_confirmed", "count"},
    {"sniffer.mapped_frac", "ratio"}, {"stream.source_ms", "ms"},
    {"stream.driver_self_ms", "ms"}, {"stream.sink_ms", "ms"},
    {"stream.batches", "count"},     {"stream.sessions", "count"},
    {"stream.window_verdicts", "count"}, {"stream.final_verdicts", "count"},
    {"stream.queue_high_water", "count"}, {"ml.predict_ms", "ms"},
    {"ml.predict_rows", "count"},    {"ml.predict_ns_per_row", "ns"},
    {"ml.fit_ms", "ms"},             {"ml.evaluate_ms", "ms"},
    {"features.window_ms", "ms"},    {"features.windows", "count"},
    {"attacks.collect_ms", "ms"},    {"attacks.sessions", "count"},
    {"attacks.decoded_dcis", "count"}, {"attacks.missed_dcis", "count"},
    {"attacks.rnti_count", "count"}, {"tracestore.write_ms", "ms"},
    {"tracestore.bytes_per_record", "B"}, {"tracestore.open_us", "us"},
    {"tracestore.files_opened", "count"}, {"tracestore.chunks_decoded", "count"},
    {"tracestore.chunk_prune_frac", "ratio"}, {"dtw.rank_ms", "ms"},
    {"dtw.candidates", "count"},     {"dtw.full_dp", "count"},
    {"dtw.pruned_frac", "ratio"},    {"dtw.dp_cells", "count"},
    {"lte.par_eff", "ratio"},        {"attacks.par_eff", "ratio"},
    {"ml.par_eff", "ratio"},         {"stream.par_eff", "ratio"},
    {"tracestore.par_eff", "ratio"}, {"trace.overhead_frac", "ratio"},
    {"lte.wall_share", "ratio"},     {"sniffer.wall_share", "ratio"},
    {"stream.wall_share", "ratio"},  {"ml.wall_share", "ratio"},
    {"features.wall_share", "ratio"}, {"attacks.wall_share", "ratio"},
    {"tracestore.wall_share", "ratio"}, {"dtw.wall_share", "ratio"},
};

struct Value {
  double value = 0.0;
  std::string unit;
  std::size_t n = 0;
};

using Metrics = std::vector<std::pair<std::string, Value>>;

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

/// The processor's brand string, from CPUID.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string model(brand);
    model.erase(0, model.find_first_not_of(' '));
    model.erase(model.find_last_not_of(' ') + 1);
    if (!model.empty()) return model;
  }
#endif
  return "unknown";
}

// --- span analysis ----------------------------------------------------------

struct SpanTotals {
  std::map<std::string, double> busy_ms;  // by span name
  std::map<std::string, double> self_ms;  // by span name
  std::map<std::string, std::size_t> count;
  std::map<std::string, double> layer_self_ms;
  std::map<std::string, std::size_t> layer_spans;
  /// Largest per-thread sum of a layer's self time: the layer's share of
  /// the critical path, used for parallel efficiency.
  std::map<std::string, double> layer_critical_ms;
};

std::string layer_of(const std::string& name) { return name.substr(0, name.find('.')); }

SpanTotals analyse(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::int64_t> child_busy;
  for (const Span& s : spans) {
    if (s.parent != 0) child_busy[s.parent] += s.busy_ns;
  }
  SpanTotals totals;
  std::map<std::pair<std::string, std::uint32_t>, double> per_thread;
  for (const Span& s : spans) {
    const auto it = child_busy.find(s.id);
    const double self = static_cast<double>(s.busy_ns - (it == child_busy.end() ? 0 : it->second)) / 1e6;
    const std::string layer = layer_of(s.name);
    totals.busy_ms[s.name] += static_cast<double>(s.busy_ns) / 1e6;
    totals.self_ms[s.name] += self;
    ++totals.count[s.name];
    totals.layer_self_ms[layer] += self;
    ++totals.layer_spans[layer];
    per_thread[{layer, s.thread}] += self;
  }
  for (const auto& [key, ms] : per_thread) {
    double& critical = totals.layer_critical_ms[key.first];
    critical = std::max(critical, ms);
  }
  return totals;
}

// --- output -----------------------------------------------------------------

std::string number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, end);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, v] = metrics[i];
    out += (i ? ", " : "") + quoted(name) + ": {\"value\": " + number(v.value) +
           ", \"unit\": " + quoted(v.unit) + ", \"n\": " + std::to_string(v.n) + "}";
  }
  return out + "}";
}

void print_table(const char* title, const Metrics& metrics) {
  std::printf("%s\n  %-30s %16s  %-6s %8s\n", title, "metric", "value", "unit", "n");
  for (const auto& [name, v] : metrics) {
    std::printf("  %-30s %16.6g  %-6s %8zu\n", name.c_str(), v.value, v.unit.c_str(), v.n);
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  int threads = 0;
  std::string work_dir = ".bench_build/work";
  std::string spans_path;
};

Args parse_args(int argc, char** argv) {
  Args a;
  a.threads = online_cpus();
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--size") a.smoke = value == "smoke";
    else if (key == "--work") a.work_dir = value;
    else if (key == "--spans") a.spans_path = value;
    else throw std::invalid_argument("unknown argument " + key);
  }
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "city_live") return make_city_live(a.smoke);
  if (a.workload == "corpus_forensics") return make_corpus_forensics(a.smoke, a.work_dir);
  if (a.workload == "campaign") return make_campaign(a.smoke);
  throw std::invalid_argument("unknown workload '" + a.workload + "'");
}

struct Pass {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t digest = 0;
};

Pass run_pass(Workload& w, std::uint64_t input_seed, int threads, bool traced, Recorder& rec) {
  Pass p;
  std::int64_t t = now_ns();
  w.setup(input_seed, threads, traced);
  p.setup_s = seconds_since(t);
  tracer::enable(traced);
  t = now_ns();
  w.run(rec);
  p.wall_s = seconds_since(t);
  tracer::enable(false);
  rec.close_rep();
  p.digest = w.digest();
  return p;
}

int run(const Args& a) {
  const auto workload = make_workload(a);
  Recorder rec;
  std::vector<double> setup_s, wall_s;
  double rss = 0.0;
  CheckResult checks;
  std::map<std::uint64_t, std::uint64_t> digests;  // by input
  const auto input_seed = [&](std::uint64_t input) { return derive_seed({a.seed, input}); };
  const auto expect_digest = [&](std::uint64_t input, const Pass& p) {
    const auto [it, first] = digests.try_emplace(input, p.digest);
    if (!first) checks.expect(it->second == p.digest);
  };

  const std::int64_t start = now_ns();
  const int baseline_reps = a.trace ? kTracedBaselineReps : kMinReps;
  while (static_cast<int>(wall_s.size()) < baseline_reps ||
         (!a.trace && seconds_since(start) < a.seconds &&
          static_cast<int>(wall_s.size()) < kMaxReps)) {
    const std::uint64_t input = a.trace ? 0 : wall_s.size() % kInputs;
    const Pass p = run_pass(*workload, input_seed(input), a.threads, false, rec);
    std::fprintf(stderr, "e2ebench: %s rep %zu (input %llu): setup %.3f s, wall %.3f s\n",
                 a.workload.c_str(), wall_s.size() + 1, static_cast<unsigned long long>(input),
                 p.setup_s, p.wall_s);
    setup_s.push_back(p.setup_s);
    wall_s.push_back(p.wall_s);
    expect_digest(input, p);
    // The peak over one pass through the inputs. The peak keeps creeping
    // up over further repetitions, so a later reading would depend on how
    // many repetitions fit in the run.
    if (wall_s.size() <= kInputs) rss = peak_rss_mib();
  }

  Metrics layers;
  std::vector<std::pair<std::string, double>> budget;
  if (a.trace) {
    Recorder traced_rec, serial_rec;
    const Pass traced = run_pass(*workload, input_seed(0), a.threads, true, traced_rec);
    const std::vector<Span> spans = tracer::drain();
    const Pass serial = run_pass(*workload, input_seed(0), 1, true, serial_rec);
    const std::vector<Span> serial_spans = tracer::drain();
    expect_digest(0, traced);
    expect_digest(0, serial);
    start_pool(a.threads);
    if (!a.spans_path.empty()) tracer::write_csv(a.spans_path, spans);

    const SpanTotals t = analyse(spans);
    const SpanTotals t1 = analyse(serial_spans);
    std::map<std::string, Value> found;
    const auto span_metric = [&](const std::string& metric, const std::map<std::string, double>& m,
                                 const std::string& span, double scale = 1.0) {
      if (const auto it = m.find(span); it != m.end()) {
        found[metric] = Value{it->second * scale, "", t.count.at(span)};
      }
    };
    span_metric("lte.step_ms", t.self_ms, "lte.step");
    span_metric("sniffer.decode_ms", t.busy_ms, "sniffer.decode");
    span_metric("stream.source_ms", t.busy_ms, "stream.source");
    span_metric("stream.driver_self_ms", t.self_ms, "stream.run");
    span_metric("stream.sink_ms", t.busy_ms, "stream.sink");
    span_metric("ml.predict_ms", t.busy_ms, "ml.predict");
    span_metric("ml.fit_ms", t.busy_ms, "ml.fit");
    span_metric("ml.evaluate_ms", t.busy_ms, "ml.evaluate");
    span_metric("features.window_ms", t.busy_ms, "features.window");
    span_metric("attacks.collect_ms", t.busy_ms, "attacks.collect");
    span_metric("tracestore.write_ms", t.busy_ms, "tracestore.write");
    span_metric("tracestore.open_us", t.busy_ms, "tracestore.open", 1e3);
    span_metric("dtw.rank_ms", t.busy_ms, "dtw.rank");
    for (const auto& [name, series] : traced_rec.counts()) {
      found[name] = Value{series.values.front(), "", 1};
    }
    if (found.count("ml.predict_ms") && found.count("ml.predict_rows") &&
        found["ml.predict_rows"].value > 0) {
      found["ml.predict_ns_per_row"] =
          Value{found["ml.predict_ms"].value * 1e6 / found["ml.predict_rows"].value, "",
                found["ml.predict_rows"].n};
    }
    for (const char* layer : {"lte", "attacks", "ml", "stream", "tracestore"}) {
      const auto tn = t.layer_critical_ms.find(layer);
      const auto ts = t1.layer_critical_ms.find(layer);
      if (tn != t.layer_critical_ms.end() && ts != t1.layer_critical_ms.end() && tn->second > 0) {
        found[std::string(layer) + ".par_eff"] =
            Value{ts->second / (a.threads * tn->second), "", 2};
      }
    }
    found["trace.overhead_frac"] = Value{traced.wall_s / quantile(wall_s, 0.5) - 1.0, "", 1};
    for (const auto& [layer, ms] : t.layer_self_ms) {
      budget.emplace_back(layer, ms / (traced.wall_s * 1e3));
      found[layer + ".wall_share"] = Value{budget.back().second, "", t.layer_spans.at(layer)};
    }
    for (const auto& [name, unit] : kLayerMetrics) {
      Value v = found.count(name) ? found[name] : Value{};
      v.unit = unit;
      layers.emplace_back(name, v);
    }
    std::printf("layer budget (traced, %d threads, wall %.3f s): self time share of wall_s\n",
                a.threads, traced.wall_s);
    for (const auto& [layer, share] : budget) {
      std::printf("  %-12s %10.1f ms  %6.1f%%\n", layer.c_str(), t.layer_self_ms.at(layer),
                  share * 100.0);
    }
  }

  const CheckResult outputs = workload->check();
  checks.attempted += outputs.attempted;
  checks.failed += outputs.failed;

  Metrics e2e;
  const auto add = [&](const std::string& name, const std::string& unit, double v, std::size_t n) {
    e2e.emplace_back(name, Value{v, unit, n});
  };
  add("setup_s", "s", quantile(setup_s, 0.5), setup_s.size());
  add("wall_s", "s", quantile(wall_s, 0.5), wall_s.size());
  add("peak_rss_mb", "MiB", rss, 1);
  add("error_rate", "ratio",
      static_cast<double>(checks.failed) / static_cast<double>(checks.attempted), checks.attempted);
  for (const auto& [name, s] : rec.reps()) add(name, s.unit, quantile(s.values, 0.5), s.samples);
  print_table("end-to-end metrics (untraced)", e2e);
  if (a.trace) print_table("per-layer metrics (traced)", layers);

  const bool correct = checks.failed == 0;
  std::string budget_json = "[";
  for (std::size_t i = 0; i < budget.size(); ++i) {
    budget_json += (i ? ", " : "") + std::string("{\"layer\": ") + quoted(budget[i].first) +
                   ", \"share_of_wall\": " + number(budget[i].second) + "}";
  }
  budget_json += "]";
  std::printf(
      "{\"workload\": %s, \"size\": %s, \"seed\": %llu, \"trace\": %d, \"host\": {\"nproc\": %d, "
      "\"cpu_model\": %s, \"simd_tier\": %s, \"build_type\": %s, \"compiler\": %s, "
      "\"pool_threads\": %d, \"daemon_workers\": %d}, \"correct\": %s, \"attempted\": %zu, "
      "\"failed\": %zu, \"end_to_end\": %s, \"per_layer\": %s, \"layer_budget\": %s}\n",
      quoted(a.workload).c_str(), a.smoke ? "\"smoke\"" : "\"full\"",
      static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0,
      online_cpus(), quoted(cpu_model()).c_str(), quoted(to_string(simd_tier())).c_str(),
      quoted(E2E_BUILD_TYPE).c_str(), quoted(E2E_COMPILER).c_str(), thread_count(),
      thread_count(), correct ? "true" : "false", checks.attempted, checks.failed,
      metrics_json(e2e).c_str(), metrics_json(layers).c_str(), budget_json.c_str());
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::run(e2e::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
