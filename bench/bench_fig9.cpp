// Reproduces Figure 9: impact of noise traffic from background apps.
//
// The classifier is trained on single-app traces, then tested on traces
// where the victim UE runs 0-10 extra apps in the background (rotated
// every 3-4 s from a top-free-apps pool, as in the paper). The paper
// reports a 3-13% F-score drop per 10K added noise instances, with
// identification becoming impossible (<= 0.6) past ~30K instances.
#include <cstdio>

#include <algorithm>

#include "attacks/collect.hpp"
#include "attacks/pipeline.hpp"
#include "bench/bench_util.hpp"
#include "common/table.hpp"

using namespace ltefp;

int main(int argc, char** argv) {
  ltefp::bench::configure_threads(argc, argv);
  const ltefp::bench::WallClock clock;
  const bool quick = bench::quick_mode(argc, argv);
  const bench::Scale scale = bench::scale_for(quick);

  attacks::PipelineConfig config;
  config.op = lte::Operator::kTmobile;
  config.traces_per_app = scale.traces_per_app;
  config.trace_duration = scale.trace_duration;
  config.seed = 2010;
  config.session_day_range = 0;

  std::printf("Training on clean single-app traces (T-Mobile)...\n");
  attacks::FingerprintPipeline pipeline(config);
  pipeline.train(attacks::build_dataset(config));

  const features::WindowConfig window = pipeline.window_config();
  TextTable table({"Background apps", "Noise instances (K)", "YouTube window F",
                   "Trace verdict", "Identifiable?"});
  const int background_counts[] = {0, 1, 2, 3, 5, 8, 10};
  double baseline_instances = -1.0;
  for (const int bg : background_counts) {
    attacks::CollectConfig collect;
    collect.op = config.op;
    collect.duration = quick ? minutes(1.5) : minutes(4);
    collect.background_apps = bg;

    // Test windows come from YouTube sessions polluted by `bg` apps.
    features::Dataset test;
    std::size_t noise_instances = 0;
    attacks::TraceVerdict last_verdict;
    const int sessions = quick ? 2 : 3;
    for (int i = 0; i < sessions; ++i) {
      collect.seed = 4000 + 31ULL * static_cast<std::uint64_t>(bg) + static_cast<std::uint64_t>(i);
      const attacks::CollectedTrace capture =
          attacks::collect_trace(apps::AppId::kYoutube, collect);
      features::append_windows(test, capture.trace, capture.session_start, window,
                               static_cast<int>(apps::AppId::kYoutube));
      // Rough proxy for the paper's "instances": records beyond what the
      // clean app itself would produce.
      noise_instances += capture.trace.size();
      last_verdict = pipeline.classify_trace(capture.trace, capture.session_start);
    }
    // One batch predict over every session's windows.
    const ml::ConfusionMatrix cm = pipeline.evaluate(test);
    const double f = cm.f_score(static_cast<int>(apps::AppId::kYoutube));
    if (baseline_instances < 0) baseline_instances = static_cast<double>(noise_instances);
    const double noise_only =
        std::max(0.0, static_cast<double>(noise_instances) - baseline_instances);
    table.add_row({std::to_string(bg), fmt(noise_only / 1000.0, 1), fmt(f),
                   apps::to_string(last_verdict.app),
                   f > 0.6 ? "yes" : "NO (below 0.6 floor)"});
  }
  std::printf("%s",
              table.render("Figure 9 - F-score vs background-app noise (train: single app)")
                  .c_str());
  std::printf("Paper shape: monotone drop, unusable once noise exceeds ~30K instances.\n");
  clock.report("bench_fig9");
  return 0;
}
