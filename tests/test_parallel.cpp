// The determinism contract of common/parallel.hpp, end to end: the
// primitives themselves (coverage, ordering, exceptions, nesting), the
// seed-derivation regression pins, and bit-identity of every parallelised
// pipeline stage at 1/2/8 threads.
#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attacks/collect.hpp"
#include "attacks/correlation.hpp"
#include "attacks/pipeline.hpp"
#include "attacks/replay.hpp"
#include "common/rng.hpp"
#include "dtw/dtw.hpp"
#include "lte/dci.hpp"
#include "ml/random_forest.hpp"
#include "ml/serialize.hpp"
#include "sniffer/sniffer.hpp"

namespace ltefp {
namespace {

/// Restores the default pool size when a test exits, pass or fail.
struct ThreadGuard {
  ~ThreadGuard() { set_thread_count(0); }
};

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  const ThreadGuard guard;
  for (const int threads : {1, 2, 8}) {
    set_thread_count(threads);
    for (const std::size_t n : {0u, 1u, 7u, 64u, 1000u}) {
      for (const std::size_t chunk : {0u, 1u, 3u, 64u, 2000u}) {
        std::vector<std::atomic<int>> hits(n);
        parallel_for(n, chunk, [&](std::size_t begin, std::size_t end) {
          ASSERT_LE(begin, end);
          ASSERT_LE(end, n);
          for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
        });
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " n=" << n
                                       << " chunk=" << chunk << " i=" << i;
        }
      }
    }
  }
}

TEST(ParallelFor, SingleThreadRunsChunksInAscendingOrderInline) {
  const ThreadGuard guard;
  set_thread_count(1);
  std::vector<std::size_t> order;
  parallel_for(100, 7, [&](std::size_t begin, std::size_t) {
    order.push_back(begin);  // safe unsynchronised: serial by contract
    EXPECT_TRUE(in_parallel_region());
  });
  ASSERT_EQ(order.size(), 15u);
  for (std::size_t i = 1; i < order.size(); ++i) EXPECT_LT(order[i - 1], order[i]);
  EXPECT_FALSE(in_parallel_region());
}

TEST(ParallelFor, NestedRegionRunsInline) {
  const ThreadGuard guard;
  set_thread_count(8);
  std::atomic<int> inner_total{0};
  parallel_for(4, 1, [&](std::size_t begin, std::size_t end) {
    EXPECT_TRUE(in_parallel_region());
    for (std::size_t i = begin; i < end; ++i) {
      // Must not deadlock waiting for pool workers that are all busy here.
      parallel_for(10, 1, [&](std::size_t b, std::size_t e) {
        inner_total.fetch_add(static_cast<int>(e - b));
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 40);
}

TEST(ParallelFor, PropagatesFirstException) {
  const ThreadGuard guard;
  for (const int threads : {1, 8}) {
    set_thread_count(threads);
    EXPECT_THROW(parallel_for(100, 1,
                              [](std::size_t begin, std::size_t) {
                                if (begin == 42) throw std::runtime_error("boom");
                              }),
                 std::runtime_error);
    // The pool must stay usable after an exception.
    std::atomic<int> total{0};
    parallel_for(10, 1,
                 [&](std::size_t b, std::size_t e) { total.fetch_add(static_cast<int>(e - b)); });
    EXPECT_EQ(total.load(), 10);
  }
}

TEST(ParallelFor, ConcurrentCallersFromSeveralThreads) {
  // Several threads open regions at once, the way the daemon's workers
  // call predict_rows: one at a time holds the pool, the others run their
  // chunks inline. Every caller must get its own complete, correct result,
  // and thread_count() must read the same from every thread throughout.
  const ThreadGuard guard;
  set_thread_count(4);
  constexpr int kCallers = 4;
  constexpr int kRounds = 200;
  std::atomic<int> wrong{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([t, &wrong] {
      for (int round = 0; round < kRounds; ++round) {
        if (thread_count() != 4) wrong.fetch_add(1);
        const std::size_t n = 64 + static_cast<std::size_t>((t * 37 + round) % 200);
        std::vector<std::size_t> out(n, 0);
        parallel_for(n, 8, [&out, t](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) out[i] = i * i + static_cast<std::size_t>(t);
        });
        for (std::size_t i = 0; i < n; ++i) {
          if (out[i] != i * i + static_cast<std::size_t>(t)) {
            wrong.fetch_add(1);
            break;
          }
        }
        const auto mapped = parallel_map(n, [t](std::size_t i) { return i + 3 * t; });
        for (std::size_t i = 0; i < n; ++i) {
          if (mapped[i] != i + 3 * static_cast<std::size_t>(t)) {
            wrong.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(thread_count(), 4);
}

TEST(ParallelMap, OrderMatchesSerialAtAnyThreadCount) {
  const ThreadGuard guard;
  const auto square = [](std::size_t i) { return i * i; };
  set_thread_count(1);
  const auto serial = parallel_map(500, square);
  for (const int threads : {2, 8}) {
    set_thread_count(threads);
    EXPECT_EQ(parallel_map(500, square), serial) << "threads=" << threads;
  }
  ASSERT_EQ(serial.size(), 500u);
  EXPECT_EQ(serial[499], 499u * 499u);
}

TEST(ParallelConfig, SetThreadCountRoundTrips) {
  const ThreadGuard guard;
  set_thread_count(3);
  EXPECT_EQ(thread_count(), 3);
  set_thread_count(0);  // back to env/hardware default
  EXPECT_GE(thread_count(), 1);
}

// --- seed derivation pins ------------------------------------------------
// These constants define every dataset in the repo. A change here re-rolls
// all collected traces and trained forests — it must be deliberate.

TEST(SeedDerivation, SplitMixConstantsPinned) {
  EXPECT_EQ(derive_seed({}), 0x9e3779b97f4a7c15ULL);
  EXPECT_EQ(derive_seed({1}), 0xe99ff867dbf682c9ULL);
  EXPECT_EQ(derive_seed({1, 2}), 0x848a139037105040ULL);
  EXPECT_EQ(derive_seed({2, 1}), 0x2ee7471d39617aa8ULL);  // order-sensitive
}

TEST(SeedDerivation, SessionSeedPinned) {
  using attacks::session_seed;
  EXPECT_EQ(session_seed(42, static_cast<apps::AppId>(0), 0, 0), 0x126b7212c13d5e99ULL);
  EXPECT_EQ(session_seed(42, static_cast<apps::AppId>(3), 7, 2), 0xf6e5a2480ad67352ULL);
  // Negative days sign-extend; -1 must not collide with some positive day.
  EXPECT_EQ(session_seed(42, static_cast<apps::AppId>(3), 7, -1), 0x591479024413ac7fULL);
}

TEST(SeedDerivation, SessionSeedIsInjectiveAcrossNearbyCoordinates) {
  std::vector<std::uint64_t> seeds;
  for (int app = 0; app < apps::kNumApps; ++app) {
    for (int idx = 0; idx < 4; ++idx) {
      for (int day = 0; day < 3; ++day) {
        seeds.push_back(attacks::session_seed(7, static_cast<apps::AppId>(app), idx, day));
      }
    }
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

// --- bit-identity of the parallelised stages -----------------------------

template <typename Fn>
auto at_threads(int threads, Fn&& fn) {
  const ThreadGuard guard;
  set_thread_count(threads);
  return fn();
}

TEST(BitIdentity, CollectTracesMatchAcrossThreadCounts) {
  attacks::CollectConfig config;
  config.op = lte::Operator::kLab;
  config.duration = seconds(30);
  config.seed = 5;
  const auto collect = [&] {
    return attacks::collect_traces(apps::AppId::kWhatsApp, 4, config);
  };
  const auto base = at_threads(1, collect);
  ASSERT_EQ(base.size(), 4u);
  for (const int threads : {2, 8}) {
    const auto traces = at_threads(threads, collect);
    ASSERT_EQ(traces.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(traces[i].trace, base[i].trace) << "threads=" << threads << " session=" << i;
      EXPECT_EQ(traces[i].session_start, base[i].session_start);
      EXPECT_EQ(traces[i].rnti_count, base[i].rnti_count);
    }
  }
}

// Commercial sessions differ in estimated cost, so the pool claims them
// heaviest first, out of app-major order: each trace must still land in
// its own app-major slot, equal to a serial collect_trace of that session,
// and windowing the traces in parallel must keep the dataset's row order.
TEST(BitIdentity, CollectAllTracesKeepsAppMajorOrderWhenClaimedHeaviestFirst) {
  attacks::PipelineConfig config;
  config.op = lte::Operator::kTmobile;
  config.traces_per_app = 2;
  config.trace_duration = seconds(5);
  config.seed = 100;
  const auto traces = at_threads(4, [&] { return attacks::collect_all_traces(config); });
  ASSERT_EQ(traces.size(), static_cast<std::size_t>(apps::kNumApps) * 2);
  attacks::CollectConfig collect;
  collect.op = config.op;
  collect.duration = config.trace_duration;
  collect.day_jitter_range = 30;
  std::vector<double> cost;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const apps::AppId app = apps::kAllApps[i / 2];
    attacks::CollectConfig c = collect;
    c.seed = attacks::session_seed(config.seed, app, static_cast<int>(i % 2), 0);
    cost.push_back(attacks::estimated_session_cost(c));
    const auto serial = at_threads(1, [&] { return attacks::collect_trace(app, c); });
    EXPECT_EQ(traces[i].app, app) << "slot " << i;
    EXPECT_EQ(traces[i].trace, serial.trace) << "slot " << i;
  }
  // Not already descending: the claim order really left app-major order.
  EXPECT_FALSE(std::is_sorted(cost.begin(), cost.end(), std::greater<>()));
  const features::WindowConfig window;
  const auto serial = at_threads(1, [&] { return attacks::dataset_from_traces(traces, window); });
  const auto parallel = at_threads(4, [&] { return attacks::dataset_from_traces(traces, window); });
  ASSERT_EQ(parallel.size(), serial.size());
  ASSERT_GT(serial.size(), 0u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel.samples[i].label, serial.samples[i].label) << "row " << i;
    EXPECT_EQ(parallel.samples[i].features, serial.samples[i].features) << "row " << i;
  }
}

TEST(BitIdentity, RandomForestFitMatchesAcrossThreadCounts) {
  Rng rng(17);
  features::Dataset data;
  data.feature_names = features::feature_names();
  data.label_names = {"a", "b", "c"};
  for (int i = 0; i < 300; ++i) {
    features::FeatureVector x(features::kFeatureCount);
    for (auto& v : x) v = rng.normal(i % 3, 1.0);
    data.add(std::move(x), i % 3);
  }
  const auto fit_serialized = [&] {
    ml::RandomForest rf(ml::ForestConfig{.num_trees = 12, .seed = 9});
    rf.fit(data);
    std::ostringstream out;
    ml::save_forest(out, rf);
    return out.str();
  };
  const std::string base = at_threads(1, fit_serialized);
  EXPECT_EQ(at_threads(2, fit_serialized), base);
  EXPECT_EQ(at_threads(8, fit_serialized), base);
}

TEST(BitIdentity, BlindDecodeBatchMatchesSerialReference) {
  Rng rng(23);
  std::vector<lte::PdcchSubframe> subframes;
  for (int t = 0; t < 200; ++t) {
    lte::PdcchSubframe sf;
    sf.time = t;
    const int dcis = static_cast<int>(rng.uniform_int(0, 6));
    for (int i = 0; i < dcis; ++i) {
      lte::Dci dci;
      dci.direction = rng.bernoulli(0.5) ? lte::Direction::kDownlink : lte::Direction::kUplink;
      dci.rnti = static_cast<lte::Rnti>(rng.uniform_int(lte::kMinCRnti, lte::kMaxCRnti));
      dci.mcs = static_cast<std::uint8_t>(rng.uniform_int(0, 28));
      dci.nprb = static_cast<std::uint8_t>(rng.uniform_int(1, 100));
      sf.dcis.push_back(lte::encode_dci(dci));
    }
    subframes.push_back(std::move(sf));
  }
  // Serial reference straight from the pure per-DCI core.
  sniffer::Trace reference;
  for (const auto& sf : subframes) {
    for (const auto& enc : sf.dcis) {
      const auto r = sniffer::blind_decode_dci(enc, sf.time, sf.cell);
      if (r.kind == sniffer::BlindDecodeResult::Kind::kRecord) reference.push_back(r.record);
    }
  }
  for (const int threads : {1, 2, 8}) {
    const auto batch = at_threads(threads, [&] { return sniffer::blind_decode(subframes); });
    EXPECT_EQ(batch, reference) << "threads=" << threads;
  }
}

TEST(BitIdentity, DtwSimilarityMatrixMatchesAcrossThreadCounts) {
  Rng rng(31);
  std::vector<std::vector<double>> series(9);
  for (auto& s : series) {
    s.resize(40);
    for (auto& v : s) v = rng.uniform(0, 30);
  }
  dtw::DtwOptions options;
  options.band = 6;
  const auto compute = [&] { return dtw::similarity_matrix(series, options); };
  const auto base = at_threads(1, compute);
  ASSERT_EQ(base.size(), series.size() * series.size());
  for (std::size_t i = 0; i < series.size(); ++i) {
    EXPECT_DOUBLE_EQ(base[i * series.size() + i], 1.0);  // self-similarity
    for (std::size_t j = 0; j < series.size(); ++j) {
      EXPECT_EQ(base[i * series.size() + j], base[j * series.size() + i]);
    }
  }
  EXPECT_EQ(at_threads(2, compute), base);
  EXPECT_EQ(at_threads(8, compute), base);
}

TEST(BitIdentity, TraceSimilarityMatrixMatchesAcrossThreadCounts) {
  attacks::CollectConfig config;
  config.op = lte::Operator::kLab;
  config.duration = seconds(20);
  config.seed = 3;
  const auto traces = at_threads(1, [&] {
    std::vector<sniffer::Trace> out;
    for (const auto& t : attacks::collect_traces(apps::AppId::kSkype, 3, config)) {
      out.push_back(t.trace);
    }
    return out;
  });
  const auto compute = [&] {
    return attacks::trace_similarity_matrix(traces, 0, seconds(1), config.duration);
  };
  const auto base = at_threads(1, compute);
  EXPECT_EQ(at_threads(2, compute), base);
  EXPECT_EQ(at_threads(8, compute), base);
}

TEST(BitIdentity, FingerprintExperimentMatchesAcrossThreadCounts) {
  attacks::PipelineConfig config;
  config.op = lte::Operator::kLab;
  config.traces_per_app = 2;
  config.trace_duration = seconds(45);
  config.forest.num_trees = 8;
  config.seed = 13;
  const auto run = [&] { return attacks::run_fingerprint_experiment(config); };
  const auto base = at_threads(1, run);
  ASSERT_EQ(base.size(), static_cast<std::size_t>(apps::kNumApps));
  for (const int threads : {2, 8}) {
    const auto scores = at_threads(threads, run);
    ASSERT_EQ(scores.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(scores[i].app, base[i].app) << "threads=" << threads;
      EXPECT_EQ(scores[i].f_score, base[i].f_score) << "threads=" << threads;
      EXPECT_EQ(scores[i].precision, base[i].precision) << "threads=" << threads;
      EXPECT_EQ(scores[i].recall, base[i].recall) << "threads=" << threads;
    }
  }
}

TEST(BitIdentity, CorpusRecordAndParallelReplayRoundTrips) {
  const auto dir = (std::filesystem::temp_directory_path() /
                    "ltefp_test_parallel_corpus")
                       .string();
  std::filesystem::remove_all(dir);
  attacks::PipelineConfig config;
  config.op = lte::Operator::kLab;
  config.traces_per_app = 1;
  config.trace_duration = seconds(20);
  config.seed = 21;
  const auto recorded = at_threads(2, [&] {
    attacks::record_corpus(config, dir);
    return attacks::collect_all_traces(config);
  });
  for (const int threads : {1, 8}) {
    const auto replayed = at_threads(threads, [&] { return attacks::load_corpus(dir, {}); });
    ASSERT_EQ(replayed.size(), recorded.size());
    for (std::size_t i = 0; i < recorded.size(); ++i) {
      EXPECT_EQ(replayed[i].app, recorded[i].app) << "threads=" << threads;
      EXPECT_EQ(replayed[i].trace, recorded[i].trace) << "threads=" << threads;
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ltefp
