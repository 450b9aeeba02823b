// Attack III: the correlation attack (paper Sections III-D and VII-C).
//
// Three steps (Figure 6): (1) radio scanning — both victims' cells are
// sniffed and identity-mapped; (2) app detection — the hierarchical RF
// identifies the app class in use; (3) similarity calculation — DTW
// (Equation 1) compares the two victims' per-T_w frame-count series, and a
// logistic regression on the similarity features decides whether the
// matched traces represent actual communication (Table VII).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "apps/app_id.hpp"
#include "common/sim_time.hpp"
#include "dtw/dtw.hpp"
#include "features/dataset.hpp"
#include "lte/types.hpp"
#include "ml/logreg.hpp"
#include "ml/metrics.hpp"
#include "sniffer/trace.hpp"

namespace ltefp::attacks {

struct CorrelationConfig {
  lte::Operator op = lte::Operator::kLab;
  TimeMs duration = minutes(3);   // per captured session
  TimeMs t_w = seconds(1);        // paper default T_w = 1 s
  std::uint64_t seed = 11;
  int day = 0;
};

/// One observed pair of sessions and its similarity analysis.
struct PairObservation {
  apps::AppId app = apps::AppId::kWhatsApp;
  bool actually_paired = false;  // ground truth: same conversation?
  double similarity = 0.0;       // headline DTW similarity score
  /// Feature vector for the contact classifier:
  /// [sim A-UL vs B-DL, sim A-DL vs B-UL, sim total-total, volume ratio].
  features::FeatureVector features;
};

/// Captures one pair of sessions — genuinely conversing when `paired`,
/// independent otherwise — through two sniffers, and computes DTW
/// similarity features from the captured traces alone.
PairObservation run_pair_session(apps::AppId app, bool paired, const CorrelationConfig& config);

/// Mean/stddev of similarity over `runs` paired sessions (Table VI cell).
struct SimilarityStats {
  double mean = 0.0;
  double stddev = 0.0;
  int runs = 0;
};
SimilarityStats measure_similarity(apps::AppId app, int runs, const CorrelationConfig& config);

/// Trains the logistic-regression contact classifier on `train_pairs`
/// paired + `train_pairs` unpaired sessions, evaluates on `test_pairs` of
/// each, and returns precision/recall of the "in contact" class
/// (Table VII cell).
ml::BinaryMetrics correlation_attack(apps::AppId app, int train_pairs, int test_pairs,
                                     const CorrelationConfig& config);

/// All-pairs DTW similarity of captured traces: bins each trace into a
/// per-T_w frame-count series from `origin`, then fills the flattened
/// row-major n×n matrix of cross-trace similarities — the candidate-pair
/// screen an attacker runs over every tailed victim before the per-pair
/// contact classifier. Pairs are computed concurrently (dtw::
/// similarity_matrix); output is bit-identical at any thread count.
std::vector<double> trace_similarity_matrix(std::span<const sniffer::Trace> traces,
                                            TimeMs origin, TimeMs t_w, TimeMs duration);

/// Result of a pruned candidate scan: the k best matches (descending
/// similarity, ties to the lower index) plus where the lower-bound cascade
/// spent its evaluations.
struct CandidateRanking {
  std::vector<dtw::Match> matches;
  dtw::SearchStats stats;
};

/// Ranks candidate victims against one target: the target's uplink series
/// vs each candidate's downlink series (when the target talks, their
/// uplink mirrors the contact's downlink — the same cross-direction signal
/// the pairwise contact features use). Runs on the pruned candidate-search engine
/// (dtw::top_k): most candidates are rejected by the LB_Kim/LB_Keogh
/// cascade or an early-abandoned DP, and the returned ranking is
/// bit-identical to scoring every candidate in full.
CandidateRanking rank_candidate_contacts(const sniffer::Trace& target,
                                         std::span<const sniffer::Trace> candidates,
                                         TimeMs origin, TimeMs t_w, TimeMs duration,
                                         std::size_t k = 1);

}  // namespace ltefp::attacks
