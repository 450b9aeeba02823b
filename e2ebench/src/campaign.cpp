// Workload `campaign`: the paper's offline experiment (Table III shape) on
// the T-Mobile profile. Collect a few traces per app, window them, split
// 80/20, train the hierarchical forest and evaluate it. Here the radio
// simulation runs as many independent single-cell sessions in parallel,
// unlike the one sharded city of `city_live`.
#include "attacks/pipeline.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "trace.hpp"

namespace e2e {
namespace {

using namespace ltefp;

struct CampaignSize {
  int traces_per_app;
  TimeMs trace_ms;
  TimeMs warmup_trace_ms;
};

constexpr CampaignSize kFullSize{4, seconds(90), seconds(10)};
constexpr CampaignSize kSmokeSize{1, seconds(20), seconds(2)};

struct Outcome {
  ml::ConfusionMatrix confusion{apps::kNumApps};
  std::size_t windows = 0;
  std::size_t sessions = 0;
  std::size_t decoded_dcis = 0;
  std::size_t missed_dcis = 0;
  std::size_t rnti_count = 0;
};

Outcome run_campaign(const attacks::PipelineConfig& config) {
  Outcome out;
  std::vector<attacks::CollectedTrace> traces;
  {
    const ScopedSpan span("attacks.collect");
    traces = attacks::collect_all_traces(config);
  }
  attacks::FingerprintPipeline pipeline(config);
  features::Dataset data;
  {
    const ScopedSpan span("features.window");
    data = attacks::dataset_from_traces(traces, pipeline.window_config());
  }
  Rng rng(config.seed ^ 0xABCDEF);
  auto [train, test] = features::train_test_split(data, 0.8, rng);
  {
    const ScopedSpan span("ml.fit");
    pipeline.train(train);
  }
  {
    const ScopedSpan span("ml.evaluate");
    out.confusion = pipeline.evaluate(test);
  }
  out.windows = data.size();
  out.sessions = traces.size();
  for (const auto& t : traces) {
    out.decoded_dcis += t.decoded_dcis;
    out.missed_dcis += t.missed_dcis;
    out.rnti_count += t.rnti_count;
  }
  return out;
}

class Campaign final : public Workload {
 public:
  explicit Campaign(CampaignSize size) : size_(size) {}

  // The campaign's inputs are its configuration; set-up is a warm-up pass
  // through the same collect -> window -> fit path at miniature size, so the
  // pool, allocator arenas and code pages are in place before timing.
  void setup(std::uint64_t seed, int threads, bool /*traced*/) override {
    start_pool(threads);
    train_daemon_forest(derive_seed({seed, 0x3A53ULL}), 1, size_.warmup_trace_ms, 10);
    threads_ = threads;
    config_ = attacks::PipelineConfig{};
    config_.op = lte::Operator::kTmobile;
    config_.traces_per_app = size_.traces_per_app;
    config_.trace_duration = size_.trace_ms;
    config_.seed = seed;
  }

  void run(Recorder& rec) override {
    const Outcome out = run_campaign(config_);
    confusion_ = out.confusion;
    double f1 = 0.0;
    for (int c = 0; c < apps::kNumApps; ++c) f1 += confusion_.f_score(c);
    rec.rep("macro_f1", "ratio", f1 / apps::kNumApps);
    rec.count("features.windows", "count", static_cast<double>(out.windows));
    rec.count("attacks.sessions", "count", static_cast<double>(out.sessions));
    rec.count("attacks.decoded_dcis", "count", static_cast<double>(out.decoded_dcis));
    rec.count("attacks.missed_dcis", "count", static_cast<double>(out.missed_dcis));
    rec.count("attacks.rnti_count", "count", static_cast<double>(out.rnti_count));
  }

  std::uint64_t digest() const override { return digest_of(confusion_); }

  // The confusion matrix must not depend on the thread count: rerun the
  // whole campaign at one thread and compare every cell.
  CheckResult check() override {
    start_pool(1);
    const Outcome serial = run_campaign(config_);
    start_pool(threads_);
    CheckResult result;
    for (int t = 0; t < apps::kNumApps; ++t) {
      for (int p = 0; p < apps::kNumApps; ++p) {
        result.expect(serial.confusion.count(t, p) == confusion_.count(t, p));
      }
    }
    return result;
  }

 private:
  static std::uint64_t digest_of(const ml::ConfusionMatrix& cm) {
    std::uint64_t h = fnv1a(nullptr, 0);
    for (int t = 0; t < cm.num_classes(); ++t) {
      for (int p = 0; p < cm.num_classes(); ++p) {
        const std::uint64_t n = cm.count(t, p);
        h = fnv1a(&n, sizeof(n), h);
      }
    }
    return h;
  }

  CampaignSize size_;
  int threads_ = 1;
  attacks::PipelineConfig config_;
  ml::ConfusionMatrix confusion_{apps::kNumApps};
};

}  // namespace

std::unique_ptr<Workload> make_campaign(bool smoke) {
  return std::make_unique<Campaign>(smoke ? kSmokeSize : kFullSize);
}

}  // namespace e2e
