#include "attacks/correlation.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "apps/background.hpp"
#include "apps/factory.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "dtw/dtw.hpp"
#include "lte/network.hpp"
#include "sniffer/sniffer.hpp"

namespace ltefp::attacks {
namespace {

constexpr lte::Imsi kUserAImsi = 310'120'000'000'001ULL;
constexpr lte::Imsi kUserBImsi = 310'120'000'000'002ULL;
constexpr lte::Imsi kBackgroundImsiBase = 310'120'000'300'000ULL;
constexpr TimeMs kWarmup = 2'000;

std::vector<double> direction_series(const sniffer::Trace& trace, lte::Direction dir,
                                     TimeMs origin, TimeMs t_w, std::size_t bins) {
  sniffer::Trace filtered;
  for (const auto& r : trace) {
    if (r.direction == dir) filtered.push_back(r);
  }
  return sniffer::frames_per_bin(filtered, origin, t_w, bins);
}

/// DTW similarity features from two captured traces. `clock_skew` shifts
/// trace B's bin origin, modelling the unsynchronised capture clocks of two
/// independent sniffers.
features::FeatureVector similarity_features(const sniffer::Trace& a, const sniffer::Trace& b,
                                            TimeMs origin, TimeMs t_w, TimeMs duration,
                                            TimeMs clock_skew) {
  const auto bins = static_cast<std::size_t>(std::max<TimeMs>(1, duration / t_w));
  dtw::DtwOptions options;
  options.band = static_cast<int>(std::max<std::size_t>(4, bins / 8));

  const TimeMs origin_b = origin + clock_skew;
  const auto a_ul = direction_series(a, lte::Direction::kUplink, origin, t_w, bins);
  const auto a_dl = direction_series(a, lte::Direction::kDownlink, origin, t_w, bins);
  const auto b_ul = direction_series(b, lte::Direction::kUplink, origin_b, t_w, bins);
  const auto b_dl = direction_series(b, lte::Direction::kDownlink, origin_b, t_w, bins);
  const auto a_all = sniffer::frames_per_bin(a, origin, t_w, bins);
  const auto b_all = sniffer::frames_per_bin(b, origin_b, t_w, bins);

  // When A talks, A's uplink mirrors B's downlink (and vice versa): those
  // cross-direction similarities carry the conversational signal.
  const double sim_ul_dl = dtw::series_similarity(a_ul, b_dl, options);
  const double sim_dl_ul = dtw::series_similarity(a_dl, b_ul, options);
  const double sim_total = dtw::series_similarity(a_all, b_all, options);

  const double vol_a = static_cast<double>(sniffer::total_bytes(a));
  const double vol_b = static_cast<double>(sniffer::total_bytes(b));
  const double volume_ratio =
      vol_a + vol_b > 0 ? std::min(vol_a, vol_b) / std::max({vol_a, vol_b, 1.0}) : 0.0;

  return {sim_ul_dl, sim_dl_ul, sim_total, volume_ratio};
}

}  // namespace

PairObservation run_pair_session(apps::AppId app, bool paired,
                                 const CorrelationConfig& config) {
  lte::Simulation sim(config.seed);
  const lte::OperatorProfile profile = lte::operator_profile(config.op);

  // The two victims camp in different cells (the attack needs one sniffer
  // per victim cell; same-cell pairs are a special case of this).
  const lte::CellId cell_a = sim.add_cell(profile);
  const lte::CellId cell_b = sim.add_cell(profile);
  apps::populate_background_ues(sim, cell_a, profile, kBackgroundImsiBase);
  apps::populate_background_ues(sim, cell_b, profile, kBackgroundImsiBase + 1000);

  const lte::UeId user_a = sim.add_ue(kUserAImsi);
  const lte::UeId user_b = sim.add_ue(kUserBImsi);
  sim.camp(user_a, cell_a);
  sim.camp(user_b, cell_b);

  sniffer::SnifferConfig sc;
  sc.miss_rate = profile.sniffer_miss_rate;
  sc.false_rate = profile.sniffer_false_rate;
  sniffer::Sniffer sniffer_a(sc, sim.rng().fork());
  sniffer::Sniffer sniffer_b(sc, sim.rng().fork());
  sniffer_a.restrict_to_tmsi(sim.tmsi_of(user_a));
  sniffer_b.restrict_to_tmsi(sim.tmsi_of(user_b));
  sim.add_observer(cell_a, sniffer_a);
  sim.add_observer(cell_b, sniffer_b);

  sim.run_for(kWarmup);

  // Real-world victims run other apps alongside the conversation; their
  // noise pollutes the frame-count series the attacker correlates. The
  // lab experiment uses dedicated UEs.
  const bool live_network = config.op != lte::Operator::kLab;
  const auto with_noise = [&](std::unique_ptr<lte::TrafficSource> fg) {
    if (!live_network) return fg;
    // Ambient device chatter (notifications, sync, feed refreshes) -
    // light but enough to blur the conversation's frame-count series.
    apps::WebBrowsingSource::Params ambient;
    ambient.think_mean_s = 14.0;
    ambient.response_kb_mean = 14;
    ambient.response_kb_sigma = 0.8;
    ambient.burst_rate_kbps = 2000;
    return std::unique_ptr<lte::TrafficSource>(std::make_unique<apps::CompositeSource>(
        std::move(fg), std::make_unique<apps::WebBrowsingSource>(ambient, sim.rng().fork())));
  };

  if (paired) {
    auto [src_a, src_b] =
        apps::make_paired_sources(app, config.duration, sim.rng().fork(), 70, config.day);
    sim.set_traffic_source(user_a, with_noise(std::move(src_a)));
    sim.set_traffic_source(user_b, with_noise(std::move(src_b)));
  } else {
    // Same app, independent conversations with third parties.
    sim.set_traffic_source(user_a, with_noise(apps::make_app_source(
                                       app, config.duration, sim.rng().fork(), config.day)));
    sim.set_traffic_source(user_b, with_noise(apps::make_app_source(
                                       app, config.duration, sim.rng().fork(), config.day)));
  }

  const TimeMs origin = sim.now();
  sim.run_for(config.duration);

  PairObservation obs;
  obs.app = app;
  obs.actually_paired = paired;
  const auto trace_a = sniffer_a.trace_of_tmsi(sim.tmsi_of(user_a));
  const auto trace_b = sniffer_b.trace_of_tmsi(sim.tmsi_of(user_b));
  // The two sniffers are independent boxes: their capture clocks are not
  // perfectly aligned, so one series is observed with a skewed origin.
  Rng skew_rng(config.seed ^ 0xC10C4ULL);
  const TimeMs clock_skew = static_cast<TimeMs>(skew_rng.uniform(-900.0, 900.0));
  obs.features =
      similarity_features(trace_a, trace_b, origin, config.t_w, config.duration, clock_skew);
  // Headline similarity score D(T_w, T_a): the strongest cross-direction
  // match (sender-side uplink vs receiver-side downlink).
  obs.similarity = std::max(obs.features[0], obs.features[1]);
  return obs;
}

std::vector<double> trace_similarity_matrix(std::span<const sniffer::Trace> traces,
                                            TimeMs origin, TimeMs t_w, TimeMs duration) {
  const auto bins = static_cast<std::size_t>(std::max<TimeMs>(1, duration / t_w));
  dtw::DtwOptions options;
  options.band = static_cast<int>(std::max<std::size_t>(4, bins / 8));
  std::vector<std::vector<double>> series(traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    series[i] = sniffer::frames_per_bin(traces[i], origin, t_w, bins);
  }
  return dtw::similarity_matrix(series, options);
}

CandidateRanking rank_candidate_contacts(const sniffer::Trace& target,
                                         std::span<const sniffer::Trace> candidates,
                                         TimeMs origin, TimeMs t_w, TimeMs duration,
                                         std::size_t k) {
  const auto bins = static_cast<std::size_t>(std::max<TimeMs>(1, duration / t_w));
  dtw::SearchOptions options;
  options.dtw.band = static_cast<int>(std::max<std::size_t>(4, bins / 8));
  const auto query = direction_series(target, lte::Direction::kUplink, origin, t_w, bins);
  std::vector<std::vector<double>> series(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    series[i] = direction_series(candidates[i], lte::Direction::kDownlink, origin, t_w, bins);
  }
  CandidateRanking ranking;
  ranking.matches = dtw::top_k(query, series, k, options, &ranking.stats);
  return ranking;
}

SimilarityStats measure_similarity(apps::AppId app, int runs, const CorrelationConfig& config) {
  if (runs <= 0) return {};
  // Each run's seed is a pure function of (config seed, run index), so the
  // heavyweight pair sessions simulate concurrently; the running-stats
  // reduction happens on the calling thread in run order.
  const auto sims = parallel_map(static_cast<std::size_t>(runs), [&](std::size_t i) {
    CorrelationConfig c = config;
    c.seed = config.seed + 1000003ULL * static_cast<std::uint64_t>(i + 1);
    return run_pair_session(app, /*paired=*/true, c).similarity;
  });
  RunningStats stats;
  for (const double s : sims) stats.add(s);
  SimilarityStats out;
  out.mean = stats.mean();
  out.stddev = stats.stddev();
  out.runs = runs;
  return out;
}

ml::BinaryMetrics correlation_attack(apps::AppId app, int train_pairs, int test_pairs,
                                     const CorrelationConfig& config) {
  const auto collect = [&](int count, std::uint64_t salt) {
    // Flat task per (pair index, world): sessions simulate concurrently,
    // and the dataset is assembled on the calling thread in the serial
    // loop's exact order (paired before unpaired for each index).
    const auto observations =
        parallel_map(static_cast<std::size_t>(count) * 2, [&](std::size_t j) {
          const auto i = static_cast<int>(j / 2);
          const bool paired = j % 2 == 0;
          CorrelationConfig c = config;
          c.seed = config.seed ^ salt;
          c.seed += 7919ULL * static_cast<std::uint64_t>(i + 1) + (paired ? 1 : 0);
          return run_pair_session(app, paired, c);
        });
    features::Dataset data;
    data.feature_names = {"sim_ul_dl", "sim_dl_ul", "sim_total", "volume_ratio"};
    data.label_names = {"independent", "in-contact"};
    for (const PairObservation& obs : observations) {
      data.add(obs.features, obs.actually_paired ? 1 : 0);
    }
    return data;
  };

  const features::Dataset train = collect(train_pairs, 0x7261696EULL);
  const features::Dataset test = collect(test_pairs, 0x74657374ULL);

  ml::LogisticRegression model;
  model.fit(train);

  std::vector<int> truth, predicted;
  for (const auto& s : test.samples) {
    truth.push_back(s.label);
    predicted.push_back(model.predict(s.features));
  }
  return ml::binary_metrics(truth, predicted);
}

}  // namespace ltefp::attacks
