// The steady-state subframe allocates nothing. This executable replaces the
// global operator new with a counting one, so it pins heap allocations of
// whole simulation steps, pool regions included:
//
//   - a fixed population of always-active connected UEs (more than the 64
//     due UEs that open a pool region) allocates 0 times per subframe after
//     warm-up, at 1 thread and at 4 threads;
//   - the city of the e2ebench `city_live` workload stays under 0.25
//     allocations per subframe. What is left is timer-wheel buckets still
//     growing toward their peak occupancy over many 4 s laps, connection
//     set-up and release (eNB contexts, RNTI bookkeeping) and new app
//     sessions;
//   - one DecisionTree::fit allocates at most once per leaf (its class
//     distribution) plus a fixed budget for node-vector growth and
//     fit-scoped scratch: nodes reuse the scratch, they allocate nothing;
//   - Knn::fit_rows allocates a fixed number of times whatever the row
//     count: the standardised training samples are one buffer, not one
//     vector per row;
//   - one Knn::predict after warm-up allocates nothing, and one
//     Knn::predict_proba allocates only the vector it returns: both reuse
//     a per-thread scratch;
//   - Cnn1D::fit_rows and LogisticRegression::fit_rows allocate as many
//     times for 20 epochs as for 10: every per-sample and per-mini-batch
//     buffer is sized once per fit.
//
// It is its own executable because the counting operator new is global.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <thread>
#include <vector>

#include "apps/population.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "features/dataset.hpp"
#include "features/matrix.hpp"
#include "lte/network.hpp"
#include "lte/observer.hpp"
#include "lte/operator_profile.hpp"
#include "ml/cnn.hpp"
#include "ml/decision_tree.hpp"
#include "ml/knn.hpp"
#include "ml/logreg.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ltefp {
namespace {

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

/// Restores the default pool size when a test exits, pass or fail.
struct ThreadGuard {
  ~ThreadGuard() { set_thread_count(0); }
};

/// Downlink and uplink bytes every subframe, so its UE is due every
/// subframe and never reaches the inactivity timeout. Notes whether it was
/// ever stepped off the main thread, i.e. inside a real pool region.
class AlwaysOnSource final : public lte::TrafficSource {
 public:
  AlwaysOnSource(std::thread::id main, std::atomic<bool>& off_main)
      : main_(main), off_main_(off_main) {}

  void step(TimeMs now, std::vector<lte::AppPacket>& out) override {
    out.push_back({lte::Direction::kDownlink, 200 + static_cast<int>(now % 7) * 150});
    if (now % 4 == 0) out.push_back({lte::Direction::kUplink, 60});
    if (std::this_thread::get_id() != main_) off_main_.store(true, std::memory_order_relaxed);
  }
  const char* name() const override { return "always-on"; }

 private:
  std::thread::id main_;
  std::atomic<bool>& off_main_;
};

/// Counts what the air carries, allocation-free.
class CountingObserver final : public lte::PdcchObserver {
 public:
  void on_subframe(const lte::PdcchSubframe& sf) override { dcis += sf.dcis.size(); }
  void on_rrc_setup(const lte::RrcConnectionSetup&) override { ++setups; }
  void on_rrc_release(const lte::RrcConnectionRelease&) override { ++releases; }
  std::size_t dcis = 0;
  std::size_t setups = 0;
  std::size_t releases = 0;
};

constexpr std::size_t kCells = 4;
constexpr std::size_t kUesPerCell = 24;  // 96 due UEs per subframe: sharded
// Past one revolution of the 4096-slot timer wheel, so every bucket has
// held its entries once and kept the capacity.
constexpr TimeMs kWarmupMs = 5'000;
constexpr TimeMs kMeasuredMs = 2'000;

void expect_fixed_population_allocates_nothing(int threads) {
  const ThreadGuard guard;
  set_thread_count(threads);
  std::atomic<bool> off_main{false};
  lte::Simulation sim(7);
  // Both schedulers, HARQ retransmissions and fading channels.
  const lte::OperatorProfile profiles[] = {lte::operator_profile(lte::Operator::kLab),
                                           lte::operator_profile(lte::Operator::kTmobile)};
  std::vector<CountingObserver> observers(kCells);
  for (std::size_t c = 0; c < kCells; ++c) {
    const lte::CellId cell = sim.add_cell(profiles[c % 2]);
    sim.add_observer(cell, observers[c]);
    for (std::size_t u = 0; u < kUesPerCell; ++u) {
      const lte::UeId ue = sim.add_ue(static_cast<lte::Imsi>(1000 + c * kUesPerCell + u));
      sim.camp(ue, cell);
      sim.set_traffic_source(ue, std::make_unique<AlwaysOnSource>(std::this_thread::get_id(),
                                                                  off_main));
    }
  }
  sim.run_for(kWarmupMs);
  for (lte::UeId ue = 1; ue <= kCells * kUesPerCell; ++ue) {
    ASSERT_TRUE(sim.is_connected(ue)) << "ue " << ue;
  }
  std::vector<CountingObserver> before = observers;
  off_main.store(false);

  const std::uint64_t start = allocations();
  sim.run_for(kMeasuredMs);
  const std::uint64_t allocated = allocations() - start;

  EXPECT_EQ(allocated, 0u) << "threads=" << threads;
  for (std::size_t c = 0; c < kCells; ++c) {
    EXPECT_EQ(observers[c].setups, before[c].setups) << "cell " << c;
    EXPECT_EQ(observers[c].releases, before[c].releases) << "cell " << c;
    EXPECT_GT(observers[c].dcis - before[c].dcis, static_cast<std::size_t>(kMeasuredMs))
        << "cell " << c;
  }
  if (threads > 1) {
    EXPECT_TRUE(off_main.load()) << "no UE was processed inside a pool region";
  }
}

TEST(SteadyStateAlloc, FixedPopulationAllocatesNothingAtOneThread) {
  expect_fixed_population_allocates_nothing(1);
}

TEST(SteadyStateAlloc, FixedPopulationAllocatesNothingAtFourThreads) {
  expect_fixed_population_allocates_nothing(4);
}

TEST(SteadyStateAlloc, CityLiveCityStaysUnderQuarterAllocationPerSubframe) {
  // The e2ebench `city_live` city: 8 cells x 250 subscribers, 30 %
  // commuters, one-minute mean think gaps, T-Mobile cells.
  const ThreadGuard guard;
  set_thread_count(1);
  apps::CityOptions options;
  options.seed = 1;
  options.cells = 8;
  options.ues_per_cell = 250;
  options.commuter_fraction = 0.3;
  options.activity = {minutes(1), 2'000, 1'000};
  options.profile = lte::operator_profile(lte::Operator::kTmobile);
  apps::CityScenario city(options);
  city.run_for(5'000);

  constexpr TimeMs kSubframes = 60'000;
  const std::uint64_t start = allocations();
  city.run_for(kSubframes);
  const double per_subframe =
      static_cast<double>(allocations() - start) / static_cast<double>(kSubframes);
  EXPECT_LE(per_subframe, 0.25);
  RecordProperty("allocations_per_subframe", std::to_string(per_subframe));
}

TEST(SteadyStateAlloc, TreeFitAllocatesOncePerLeafPlusFixedScratch) {
  Rng rng(3);
  features::Dataset data;
  data.feature_names = {"f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7"};
  data.label_names.resize(5);
  for (int i = 0; i < 3'000; ++i) {
    const int label = static_cast<int>(rng.index(5));
    features::FeatureVector x(data.feature_names.size());
    for (std::size_t f = 0; f < x.size(); ++f) x[f] = rng.normal(label * (f % 3 == 0), 1.5);
    data.add(std::move(x), label);
  }
  const features::DatasetMatrix matrix(data);
  std::vector<std::size_t> bootstrap(matrix.rows());
  for (auto& row : bootstrap) row = rng.index(matrix.rows());
  ml::TreeConfig config;
  config.mtry = 3;
  ml::DecisionTree tree(config, 5);

  const std::uint64_t start = allocations();
  tree.fit(matrix, bootstrap, 5);
  const std::uint64_t allocated = allocations() - start;

  std::uint64_t leaves = 0;
  for (const auto& node : tree.export_nodes()) leaves += node.feature < 0 ? 1 : 0;
  ASSERT_GT(tree.node_count(), 500);
  EXPECT_LE(allocated, leaves + 64) << "allocated " << allocated << " nodes " << tree.node_count() << " leaves " << leaves;
}

TEST(SteadyStateAlloc, KnnFitAllocationsDoNotGrowWithRows) {
  Rng rng(4);
  features::Dataset data;
  data.feature_names = {"f0", "f1", "f2", "f3"};
  data.label_names.resize(3);
  for (int i = 0; i < 2'000; ++i) {
    const int label = static_cast<int>(rng.index(3));
    features::FeatureVector x(data.feature_names.size());
    for (double& v : x) v = rng.normal(label, 1.0);
    data.add(std::move(x), label);
  }
  const features::DatasetMatrix matrix(data);
  const std::vector<std::uint32_t> rows = matrix.all_rows();

  const auto fit_allocations = [&](std::size_t n) {
    ml::Knn knn;
    const std::uint64_t start = allocations();
    knn.fit_rows(matrix, std::span(rows).first(n));
    return allocations() - start;
  };
  const std::uint64_t small = fit_allocations(1'000);
  const std::uint64_t large = fit_allocations(2'000);
  EXPECT_EQ(small, large) << "1000 rows: " << small << ", 2000 rows: " << large;
}

TEST(SteadyStateAlloc, KnnPredictAfterWarmUpAllocatesNothing) {
  Rng rng(5);
  features::Dataset data;
  data.feature_names = {"f0", "f1", "f2", "f3"};
  data.label_names.resize(3);
  for (int i = 0; i < 300; ++i) {
    const int label = static_cast<int>(rng.index(3));
    features::FeatureVector x(data.feature_names.size());
    for (double& v : x) v = rng.normal(label, 1.0);
    data.add(std::move(x), label);
  }
  ml::Knn knn;
  knn.fit(data);
  const features::FeatureVector query = data.samples[7].features;
  const int warm = knn.predict(query);

  std::uint64_t start = allocations();
  const int label = knn.predict(query);
  EXPECT_EQ(allocations() - start, 0u);
  EXPECT_EQ(label, warm);

  start = allocations();
  const std::vector<double> proba = knn.predict_proba(query);
  EXPECT_EQ(allocations() - start, 1u);  // the returned vector
  EXPECT_EQ(proba.size(), 3u);
}

/// Four-class blobs for the epoch-count pins below.
features::DatasetMatrix learner_matrix() {
  Rng rng(6);
  features::Dataset data;
  data.feature_names = {"f0", "f1", "f2", "f3", "f4"};
  data.label_names.resize(4);
  for (int i = 0; i < 300; ++i) {
    const int label = static_cast<int>(rng.index(4));
    features::FeatureVector x(data.feature_names.size());
    for (double& v : x) v = rng.normal(label, 1.0);
    data.add(std::move(x), label);
  }
  return features::DatasetMatrix(data);
}

/// Allocations of one fit_rows over every row of `matrix`.
template <typename Model>
std::uint64_t fit_allocations(Model model, const features::DatasetMatrix& matrix) {
  const std::vector<std::uint32_t> rows = matrix.all_rows();
  const std::uint64_t start = allocations();
  model.fit_rows(matrix, rows);
  return allocations() - start;
}

TEST(SteadyStateAlloc, CnnFitAllocationsDoNotGrowWithEpochs) {
  const ThreadGuard guard;
  set_thread_count(1);
  const features::DatasetMatrix matrix = learner_matrix();
  const std::uint64_t ten = fit_allocations(ml::Cnn1D(ml::CnnConfig{.epochs = 10}), matrix);
  const std::uint64_t twenty = fit_allocations(ml::Cnn1D(ml::CnnConfig{.epochs = 20}), matrix);
  EXPECT_EQ(ten, twenty) << "10 epochs: " << ten << ", 20 epochs: " << twenty;
}

TEST(SteadyStateAlloc, LogRegFitAllocationsDoNotGrowWithEpochs) {
  const ThreadGuard guard;
  set_thread_count(1);
  const features::DatasetMatrix matrix = learner_matrix();
  const std::uint64_t ten =
      fit_allocations(ml::LogisticRegression(ml::LogRegConfig{.epochs = 10}), matrix);
  const std::uint64_t twenty =
      fit_allocations(ml::LogisticRegression(ml::LogRegConfig{.epochs = 20}), matrix);
  EXPECT_EQ(ten, twenty) << "10 epochs: " << ten << ", 20 epochs: " << twenty;
}

}  // namespace
}  // namespace ltefp
