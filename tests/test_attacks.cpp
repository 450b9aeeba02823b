// Integration tests for the three attacks (short sessions keep them fast).
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "attacks/collect.hpp"
#include "common/stats.hpp"
#include "attacks/correlation.hpp"
#include "attacks/cost.hpp"
#include "attacks/history.hpp"
#include "attacks/pipeline.hpp"
#include "ml/serialize.hpp"

namespace ltefp::attacks {
namespace {

PipelineConfig small_lab_config() {
  PipelineConfig config;
  config.op = lte::Operator::kLab;
  config.traces_per_app = 2;
  config.trace_duration = minutes(1);
  config.seed = 31337;
  return config;
}

TEST(Collect, ProducesIdentityMappedTrace) {
  CollectConfig config;
  config.op = lte::Operator::kLab;
  config.duration = seconds(30);
  config.seed = 5;
  const CollectedTrace capture = collect_trace(apps::AppId::kSkype, config);
  EXPECT_EQ(capture.app, apps::AppId::kSkype);
  EXPECT_GT(capture.trace.size(), 200u);
  EXPECT_GE(capture.rnti_count, 1u);
  // Trace is time-ordered.
  for (std::size_t i = 1; i < capture.trace.size(); ++i) {
    ASSERT_GE(capture.trace[i].time, capture.trace[i - 1].time);
  }
}

TEST(Collect, DeterministicForSameSeed) {
  CollectConfig config;
  config.op = lte::Operator::kLab;
  config.duration = seconds(15);
  config.seed = 6;
  const CollectedTrace a = collect_trace(apps::AppId::kYoutube, config);
  const CollectedTrace b = collect_trace(apps::AppId::kYoutube, config);
  EXPECT_EQ(a.trace, b.trace);
}

TEST(Collect, MessagingRefreshesRntis) {
  CollectConfig config;
  config.op = lte::Operator::kLab;
  config.duration = minutes(3);
  config.seed = 7;
  const CollectedTrace capture = collect_trace(apps::AppId::kWhatsApp, config);
  // Chat lulls exceed the inactivity timeout, so the victim reconnects
  // under fresh RNTIs — the IM signature the paper highlights.
  EXPECT_GE(capture.rnti_count, 2u);
}

TEST(Collect, BackgroundAppsInflateTraffic) {
  CollectConfig config;
  config.op = lte::Operator::kLab;
  config.duration = seconds(30);
  config.seed = 8;
  const auto clean = collect_trace(apps::AppId::kTelegram, config);
  config.background_apps = 6;
  const auto noisy = collect_trace(apps::AppId::kTelegram, config);
  EXPECT_GT(noisy.trace.size(), clean.trace.size());
}

TEST(Collect, CollectTracesUsesDistinctSeeds) {
  CollectConfig config;
  config.op = lte::Operator::kLab;
  config.duration = seconds(10);
  config.seed = 9;
  const auto traces = collect_traces(apps::AppId::kSkype, 3, config);
  ASSERT_EQ(traces.size(), 3u);
  EXPECT_NE(traces[0].trace.size(), 0u);
  EXPECT_FALSE(traces[0].trace == traces[1].trace);
}

TEST(Pipeline, DatasetHasAllNineLabels) {
  const features::Dataset data = build_dataset(small_lab_config());
  EXPECT_EQ(data.label_names.size(), static_cast<std::size_t>(apps::kNumApps));
  const auto hist = data.class_histogram();
  ASSERT_EQ(hist.size(), static_cast<std::size_t>(apps::kNumApps));
  for (int i = 0; i < apps::kNumApps; ++i) {
    EXPECT_GT(hist[static_cast<std::size_t>(i)], 10u)
        << data.label_names[static_cast<std::size_t>(i)];
  }
}

TEST(Pipeline, TrainEvaluateClassify) {
  const PipelineConfig config = small_lab_config();
  const features::Dataset data = build_dataset(config);
  Rng rng(1);
  auto [train, test] = features::train_test_split(data, 0.8, rng);

  FingerprintPipeline pipeline(config);
  EXPECT_FALSE(pipeline.trained());
  EXPECT_THROW(pipeline.evaluate(test), std::logic_error);
  pipeline.train(train);
  EXPECT_TRUE(pipeline.trained());

  const ml::ConfusionMatrix cm = pipeline.evaluate(test);
  EXPECT_GT(cm.accuracy(), 0.75) << "lab windows should classify well";

  // Whole-trace verdict on an unseen capture.
  CollectConfig collect;
  collect.op = config.op;
  collect.duration = minutes(1);
  collect.seed = 777;
  const CollectedTrace capture = collect_trace(apps::AppId::kNetflix, collect);
  const TraceVerdict verdict = pipeline.classify_trace(capture.trace, capture.session_start);
  EXPECT_EQ(verdict.app, apps::AppId::kNetflix);
  EXPECT_EQ(verdict.category, apps::AppCategory::kStreaming);
  EXPECT_GT(verdict.confidence, 0.5);
  EXPECT_GT(verdict.window_count, 10u);
}

TEST(Pipeline, ScoresFromConfusionShape) {
  ml::ConfusionMatrix cm(apps::kNumApps);
  cm.add(0, 0);
  cm.add(1, 0);
  const auto scores = scores_from_confusion(cm);
  ASSERT_EQ(scores.size(), static_cast<std::size_t>(apps::kNumApps));
  EXPECT_EQ(scores[0].app, apps::AppId::kNetflix);
  EXPECT_EQ(scores[0].recall, 1.0);
  EXPECT_EQ(scores[1].recall, 0.0);
}

TEST(Pipeline, EmptyTraceVerdictIsHarmless) {
  FingerprintPipeline pipeline(small_lab_config());
  features::Dataset tiny;
  tiny.feature_names = features::feature_names();
  tiny.label_names.resize(apps::kNumApps);
  for (int i = 0; i < apps::kNumApps; ++i) {
    features::FeatureVector x(features::kFeatureCount, static_cast<double>(i));
    tiny.add(x, i);
  }
  pipeline.train(tiny);
  const TraceVerdict verdict = pipeline.classify_trace({}, 0);
  EXPECT_EQ(verdict.window_count, 0u);
  EXPECT_EQ(verdict.confidence, 0.0);
}

TEST(VoteTally, MajorityWinsAndTiesGoToLowestAppId) {
  VoteTally tally;
  const TraceVerdict none = tally.verdict();
  EXPECT_EQ(none.app, apps::AppId::kNetflix);
  EXPECT_EQ(none.window_count, 0u);
  EXPECT_EQ(none.votes, 0u);
  EXPECT_EQ(none.confidence, 0.0);

  // Skype (8) and YouTube (1) tie 2-2: the lower app id wins.
  for (const int label : {8, 1, 8, 1}) tally.add(label);
  TraceVerdict v = tally.verdict();
  EXPECT_EQ(v.app, apps::AppId::kYoutube);
  EXPECT_EQ(v.category, apps::AppCategory::kStreaming);
  EXPECT_EQ(v.votes, 2u);
  EXPECT_EQ(v.window_count, 4u);
  EXPECT_EQ(v.confidence, 0.5);

  tally.add(8);
  v = tally.verdict();
  EXPECT_EQ(v.app, apps::AppId::kSkype);
  EXPECT_EQ(v.votes, 3u);
  EXPECT_EQ(v.confidence, 3.0 / 5.0);
}

TEST(VoteTally, RejectsLabelsOutsideTheAppCatalogue) {
  VoteTally tally;
  EXPECT_THROW(tally.add(-1), std::out_of_range);
  EXPECT_THROW(tally.add(apps::kNumApps), std::out_of_range);
  EXPECT_EQ(tally.verdict().window_count, 0u);  // rejected labels are not counted
}

TEST(VoteTally, ClassifyRejectsForestWithMoreClassesThanApps) {
  // A one-leaf, 20-class forest that votes class 15 for every window.
  std::string model = "ltefp-rf v1\ntrees 1 classes 20\ntree 1\nleaf";
  for (int c = 0; c < 20; ++c) model += c == 15 ? " 1" : " 0";
  std::istringstream in(model + "\n");
  const ml::RandomForest forest = ml::load_forest(in);
  ASSERT_EQ(forest.class_count(), 20);

  CollectConfig collect;
  collect.op = lte::Operator::kLab;
  collect.duration = seconds(10);
  collect.seed = 5;
  const CollectedTrace capture = collect_trace(apps::AppId::kYoutube, collect);
  ASSERT_FALSE(capture.trace.empty());
  EXPECT_THROW(classify_trace(forest, capture.trace, capture.session_start,
                              features::WindowConfig{}),
               std::out_of_range);
}

TEST(History, ReconstructsShortItinerary) {
  PipelineConfig config = small_lab_config();
  FingerprintPipeline pipeline(config);
  pipeline.train(build_dataset(config));

  HistoryConfig history;
  history.op = lte::Operator::kLab;
  history.zones = 2;
  history.seed = 404;
  history.itinerary = {
      ZoneVisit{0, apps::AppId::kNetflix, minutes(1), seconds(30)},
      ZoneVisit{1, apps::AppId::kSkype, minutes(1), seconds(30)},
      ZoneVisit{0, apps::AppId::kYoutube, minutes(1), seconds(30)},
  };
  const HistoryAttack attack(pipeline);
  const HistoryResult result = attack.run(history);
  ASSERT_EQ(result.observations.size(), 3u);
  EXPECT_EQ(result.observations[0].zone, 0);
  EXPECT_EQ(result.observations[1].zone, 1);
  // The attack should at least nail the streaming/VoIP categories.
  int category_correct = 0;
  for (const auto& obs : result.observations) {
    if (obs.predicted_category == apps::category_of(obs.true_app)) ++category_correct;
  }
  EXPECT_GE(category_correct, 2);
  EXPECT_GE(result.success_rate, 2.0 / 3.0);
}

TEST(History, RequiresTrainedPipelineAndItinerary) {
  FingerprintPipeline untrained(small_lab_config());
  EXPECT_THROW(HistoryAttack{untrained}, std::invalid_argument);

  PipelineConfig config = small_lab_config();
  FingerprintPipeline pipeline(config);
  features::Dataset tiny;
  tiny.feature_names = features::feature_names();
  tiny.label_names.resize(apps::kNumApps);
  for (int i = 0; i < apps::kNumApps; ++i) {
    tiny.add(features::FeatureVector(features::kFeatureCount, static_cast<double>(i)), i);
  }
  pipeline.train(tiny);
  const HistoryAttack attack(pipeline);
  EXPECT_THROW(attack.run(HistoryConfig{}), std::invalid_argument);
  HistoryConfig bad;
  bad.itinerary = {ZoneVisit{7, apps::AppId::kSkype, seconds(10), seconds(5)}};
  EXPECT_THROW(attack.run(bad), std::out_of_range);
}

TEST(History, DefaultItineraryShape) {
  const auto itinerary = HistoryAttack::default_itinerary(1);
  ASSERT_EQ(itinerary.size(), 12u);  // the paper's 12 attempts
  std::set<int> zones;
  for (const auto& visit : itinerary) {
    zones.insert(visit.zone);
    EXPECT_GE(visit.duration, minutes(5));
    EXPECT_LE(visit.duration, minutes(10));
  }
  EXPECT_EQ(zones.size(), 3u);
}

TEST(Correlation, PairedScoresHigherThanUnpaired) {
  CorrelationConfig config;
  config.op = lte::Operator::kLab;
  config.duration = minutes(1.5);
  config.seed = 2024;
  RunningStats paired, unpaired;
  for (int i = 0; i < 3; ++i) {
    CorrelationConfig c = config;
    c.seed += static_cast<std::uint64_t>(i) * 1009;
    paired.add(run_pair_session(apps::AppId::kSkype, true, c).similarity);
    unpaired.add(run_pair_session(apps::AppId::kSkype, false, c).similarity);
  }
  EXPECT_GT(paired.mean(), unpaired.mean());
}

TEST(Correlation, FeatureVectorShapeAndBounds) {
  CorrelationConfig config;
  config.op = lte::Operator::kLab;
  config.duration = seconds(45);
  config.seed = 99;
  const PairObservation obs = run_pair_session(apps::AppId::kWhatsApp, true, config);
  ASSERT_EQ(obs.features.size(), 4u);
  for (const double f : obs.features) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
  EXPECT_TRUE(obs.actually_paired);
  EXPECT_EQ(obs.app, apps::AppId::kWhatsApp);
}

TEST(Correlation, MeasureSimilarityAggregates) {
  CorrelationConfig config;
  config.op = lte::Operator::kLab;
  config.duration = seconds(45);
  config.seed = 55;
  const SimilarityStats stats = measure_similarity(apps::AppId::kFacebookCall, 3, config);
  EXPECT_EQ(stats.runs, 3);
  EXPECT_GT(stats.mean, 0.3);
  EXPECT_LE(stats.mean, 1.0);
  EXPECT_GE(stats.stddev, 0.0);
}

TEST(Correlation, LabAttackSeparatesContacts) {
  CorrelationConfig config;
  config.op = lte::Operator::kLab;
  config.duration = minutes(1);
  config.seed = 303;
  const ml::BinaryMetrics metrics = correlation_attack(apps::AppId::kSkype, 4, 3, config);
  EXPECT_GT(metrics.precision, 0.6);
  EXPECT_GT(metrics.recall, 0.6);
}

TEST(CostModel, FormulasMatchDefinition) {
  CostModelParams params;
  params.training_apps = 9;
  params.app_versions = 2;
  params.instances_per_app = 10;
  params.unit_collect_cost = 1.0;
  params.feature_cost = 0.05;
  params.unit_train_cost = 0.2;
  params.victims = 4;
  params.apps_per_victim = 2.5;
  params.unit_identify_cost = 0.1;
  const CostModel model(params);

  EXPECT_EQ(model.recorded_instances(), 180);  // A_n = 9 * 2 * 10
  EXPECT_EQ(model.test_instances(), 10);       // T_d = 4 * 2.5
  EXPECT_DOUBLE_EQ(model.collecting_cost(), 180.0);
  EXPECT_DOUBLE_EQ(model.training_cost(), 180 * 0.25);
  EXPECT_DOUBLE_EQ(model.identification_cost(), 10.0 + 10 * 0.15);
  EXPECT_DOUBLE_EQ(model.perf_cost(), model.collecting_cost() + model.training_cost() +
                                          model.identification_cost());
}

TEST(CostModel, RetrainingOnlyBelowThreshold) {
  CostModelParams params;
  params.performance_threshold = 0.7;
  params.drift_period_days = 7;
  const CostModel model(params);
  const CostBreakdown good = model.total_cost(0.85, 30);
  EXPECT_DOUBLE_EQ(good.total, good.perf);
  const CostBreakdown poor = model.total_cost(0.65, 30);
  EXPECT_NEAR(poor.total, poor.perf + poor.retrain_daily * 30, 1e-9);
  EXPECT_GT(poor.total, good.total);
}

TEST(CostModel, InvalidDriftPeriodThrows) {
  CostModelParams params;
  params.drift_period_days = 0;
  EXPECT_THROW(CostModel{params}, std::invalid_argument);
}

}  // namespace
}  // namespace ltefp::attacks
