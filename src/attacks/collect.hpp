// Trace-collection harness: stands up one cell of the chosen operator,
// background subscribers per its profile, a victim UE running a target app
// (optionally with background-app noise on the same device), and a passive
// sniffer that identity-maps and tails the victim. This is procedure 1+2 of
// the paper's framework (Figure 3): Target Identity Mapping followed by
// Data Acquisition.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "apps/app_id.hpp"
#include "apps/drift.hpp"
#include "common/sim_time.hpp"
#include "lte/countermeasures.hpp"
#include "lte/types.hpp"
#include "sniffer/trace.hpp"

namespace ltefp::attacks {

/// Session timing constants, shared between collection and the streaming
/// daemon (src/stream): collection lets background UEs ramp for the warmup
/// before the victim app starts, and drains buffered traffic for the drain
/// tail after it stops.
inline constexpr TimeMs kSessionWarmupMs = 2'000;
inline constexpr TimeMs kSessionDrainMs = 500;

/// On the attacker's side, a victim stream idle for at least this long is
/// treated as a session boundary. The value matches the 60 s clamp on the
/// `gap_before_ms` window feature: beyond it, silence carries no
/// fingerprint signal, so a longer wait only delays the verdict.
inline constexpr TimeMs kSessionIdleCutoffMs = 60'000;

struct CollectConfig {
  lte::Operator op = lte::Operator::kLab;
  TimeMs duration = minutes(10);   // paper: 10 minutes per trace
  int day = 0;                     // drift day (0 = training day)
  /// When > 0, each session's effective day is day + (seed-derived value
  /// in [0, day_jitter_range)): the paper's real-world dataset spans six
  /// months, so sessions sample many app-version states.
  int day_jitter_range = 0;
  int background_apps = 0;         // noise apps on the victim UE (Fig. 9)
  std::uint64_t seed = 1;
  /// Radio-side defences active in the victim's cell (Section VIII-B).
  lte::CountermeasureConfig countermeasures;
  /// 5G-style SUCI concealment (Section VIII-C): breaks passive identity
  /// mapping, so the targeted capture falls back to per-RNTI collection.
  bool conceal_identity = false;
};

struct CollectedTrace {
  apps::AppId app = apps::AppId::kNetflix;
  sniffer::Trace trace;        // victim's identity-mapped records
  TimeMs session_start = 0;    // when the victim session began
  std::size_t rnti_count = 0;  // distinct RNTIs the victim used (IM churn)
  std::size_t decoded_dcis = 0;
  std::size_t missed_dcis = 0;
};

/// Runs one collection session and returns the victim's trace.
CollectedTrace collect_trace(apps::AppId app, const CollectConfig& config);

/// Seed of one collection session: a SplitMix64 hash of (campaign seed,
/// app, session index, day). A pure function of the session coordinates —
/// no session's RNG stream depends on how many sessions ran before it, so
/// sessions can be collected in any order (or in parallel) and a future
/// reordering of the campaign loop cannot silently reshuffle datasets.
/// Pinned by regression test; changing this re-rolls every dataset.
std::uint64_t session_seed(std::uint64_t campaign_seed, apps::AppId app, int session_index,
                           int day);

/// Collects `count` traces with distinct session_seed()-derived sub-seeds.
/// Sessions run concurrently on the global pool (common/parallel.hpp);
/// results are returned in session-index order regardless of thread count.
std::vector<CollectedTrace> collect_traces(apps::AppId app, int count,
                                           const CollectConfig& config);

/// One collection session: the app and its config, seed already derived.
struct SessionTask {
  apps::AppId app = apps::AppId::kNetflix;
  CollectConfig config;
};

/// A session's estimated cost before it runs: the background UE count
/// times their offered load, of the cell profile the session will
/// simulate (lte::perturb_for_session). On commercial profiles it tracks
/// measured session time when cell load dominates it, as in minute-long
/// sessions; it leaves out the victim app's own traffic, which weighs more
/// in sessions of a few seconds. Lab sessions all estimate the same.
double estimated_session_cost(const CollectConfig& config);

/// Runs every session on the global pool, out[i] = collect_trace of
/// tasks[i]. Workers claim sessions heaviest estimated cost first (a stable
/// order, so equal estimates keep index order), which keeps the longest
/// sessions from starting last; each result goes to its own index slot, so
/// the output does not depend on claim order or thread count.
std::vector<CollectedTrace> collect_sessions(std::span<const SessionTask> tasks);

}  // namespace ltefp::attacks
