#include "attacks/collect.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <unordered_set>

#include "apps/background.hpp"
#include "apps/factory.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "lte/network.hpp"
#include "sniffer/sniffer.hpp"

namespace ltefp::attacks {
namespace {

constexpr lte::Imsi kVictimImsi = 310'410'000'000'001ULL;
constexpr lte::Imsi kBackgroundImsiBase = 310'410'000'100'000ULL;

}  // namespace

CollectedTrace collect_trace(apps::AppId app, const CollectConfig& config) {
  lte::Simulation sim(config.seed);
  // Each session is captured at a different time/place: perturb SNR and
  // cell load per session (no-op for the controlled lab profile).
  const lte::OperatorProfile profile =
      lte::perturb_for_session(lte::operator_profile(config.op), config.seed);
  const lte::CellId cell =
      sim.add_cell(profile, config.countermeasures, config.conceal_identity);
  apps::populate_background_ues(sim, cell, profile, kBackgroundImsiBase);

  const lte::UeId victim = sim.add_ue(kVictimImsi);
  sim.camp(victim, cell);

  sniffer::SnifferConfig sniffer_config;
  sniffer_config.miss_rate = profile.sniffer_miss_rate;
  sniffer_config.false_rate = profile.sniffer_false_rate;
  sniffer::Sniffer sniffer(sniffer_config, sim.rng().fork());
  // Targeted capture: the attacker knows the victim's TMSI (identity
  // mapping / OSINT) and tails only their RNTI bindings — also the paper's
  // IRB-mandated storage filter.
  sniffer.restrict_to_tmsi(sim.tmsi_of(victim));
  sim.add_observer(cell, sniffer);

  sim.run_for(kSessionWarmupMs);

  int effective_day = config.day;
  if (config.day_jitter_range > 0) {
    Rng day_rng(config.seed ^ 0xDA117ULL);
    effective_day += static_cast<int>(day_rng.index(static_cast<std::size_t>(config.day_jitter_range)));
  }
  apps::SessionContext ctx;
  ctx.day = effective_day;
  // Adaptive codecs / ABR react to live-network conditions; the lab cell
  // is controlled, so sessions there are repeatable.
  ctx.adapt_jitter = config.op == lte::Operator::kLab ? 0.0 : 0.13;
  std::unique_ptr<lte::TrafficSource> source =
      apps::make_app_source(app, config.duration, sim.rng().fork(), ctx);
  if (config.background_apps > 0) {
    source = std::make_unique<apps::CompositeSource>(
        std::move(source),
        std::make_unique<apps::BackgroundAppMix>(config.background_apps, sim.rng().fork()));
  }
  sim.set_traffic_source(victim, std::move(source));

  const TimeMs session_start = sim.now();
  sim.run_for(config.duration);
  // Drain tail: let buffered data flush so the trace covers the session.
  sim.set_traffic_source(victim, nullptr);
  sim.run_for(kSessionDrainMs);

  CollectedTrace out;
  out.app = app;
  out.session_start = session_start;
  out.trace = sniffer.trace_of_tmsi(sim.tmsi_of(victim));
  out.decoded_dcis = sniffer.decoded_count();
  out.missed_dcis = sniffer.missed_count();
  std::unordered_set<lte::Rnti> rntis;
  for (const auto& r : out.trace) rntis.insert(r.rnti);
  out.rnti_count = rntis.size();
  return out;
}

std::uint64_t session_seed(std::uint64_t campaign_seed, apps::AppId app, int session_index,
                           int day) {
  return derive_seed({campaign_seed, static_cast<std::uint64_t>(app),
                      static_cast<std::uint64_t>(session_index),
                      static_cast<std::uint64_t>(static_cast<std::int64_t>(day))});
}

std::vector<CollectedTrace> collect_traces(apps::AppId app, int count,
                                           const CollectConfig& config) {
  if (count <= 0) return {};
  std::vector<SessionTask> tasks(static_cast<std::size_t>(count), SessionTask{app, config});
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].config.seed = session_seed(config.seed, app, static_cast<int>(i), config.day);
  }
  return collect_sessions(tasks);
}

double estimated_session_cost(const CollectConfig& config) {
  const lte::OperatorProfile profile =
      lte::perturb_for_session(lte::operator_profile(config.op), config.seed);
  return static_cast<double>(profile.background_ues) * profile.background_load_bps;
}

std::vector<CollectedTrace> collect_sessions(std::span<const SessionTask> tasks) {
  std::vector<double> cost(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) cost[i] = estimated_session_cost(tasks[i].config);
  std::vector<std::size_t> claim(tasks.size());
  std::iota(claim.begin(), claim.end(), std::size_t{0});
  std::stable_sort(claim.begin(), claim.end(),
                   [&](std::size_t a, std::size_t b) { return cost[a] > cost[b]; });
  // The pool hands out chunks in ascending order, so chunk k runs task
  // claim[k]: the long sessions start first and the short ones fill in
  // behind them, instead of a long one starting last and running alone.
  std::vector<CollectedTrace> out(tasks.size());
  parallel_for(tasks.size(), /*chunk=*/1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      const SessionTask& task = tasks[claim[k]];
      out[claim[k]] = collect_trace(task.app, task.config);
    }
  });
  return out;
}

}  // namespace ltefp::attacks
