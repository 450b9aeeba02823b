#include "lte/scheduler.hpp"

#include <algorithm>
#include <numeric>

#include "lte/tbs.hpp"

namespace ltefp::lte {
namespace {

/// Appends a grant for candidate `i` from the remaining PRB budget and
/// returns the PRBs it takes (0 when the candidate holds no bytes).
int grant(std::span<const SchedCandidate> candidates, std::size_t i, int remaining_prb,
          int max_prb_per_ue, std::vector<SchedDecision>& out) {
  const SchedCandidate& c = candidates[i];
  if (c.buffer_bytes <= 0) return 0;
  const int cap = std::min({remaining_prb, max_prb_per_ue, kMaxPrb});
  const int nprb = prbs_needed(c.mcs, c.buffer_bytes, cap);
  out.push_back(SchedDecision{.candidate = i,
                              .rnti = c.rnti,
                              .nprb = nprb,
                              .mcs = c.mcs,
                              .tb_bytes = max_tb_bytes(c.mcs, nprb)});
  return nprb;
}

}  // namespace

void RoundRobinScheduler::schedule(std::span<const SchedCandidate> candidates, int total_prb,
                                   int max_prb_per_ue, std::vector<SchedDecision>& out) {
  out.clear();
  if (candidates.empty()) return;
  int remaining = total_prb;
  const std::size_t n = candidates.size();
  const std::size_t start = next_start_ % n;
  for (std::size_t i = 0; i < n && remaining > 0; ++i) {
    remaining -= grant(candidates, (start + i) % n, remaining, max_prb_per_ue, out);
  }
  ++next_start_;
}

void ProportionalFairScheduler::schedule(std::span<const SchedCandidate> candidates,
                                         int total_prb, int max_prb_per_ue,
                                         std::vector<SchedDecision>& out) {
  out.clear();
  if (candidates.empty()) return;

  // PF metric: instantaneous achievable rate over served average rate.
  order_.resize(candidates.size());
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  metric_.resize(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const auto& c = candidates[i];
    const double inst_rate = static_cast<double>(max_tb_bytes(c.mcs, 1));
    metric_[i] = inst_rate / std::max(c.avg_rate, 1e-6);
  }
  // Descending metric, ties by ascending index: the order a stable sort on
  // the metric alone gives, without the stable sort's temporary buffer.
  std::sort(order_.begin(), order_.end(), [this](std::size_t a, std::size_t b) {
    if (metric_[a] != metric_[b]) return metric_[a] > metric_[b];
    return a < b;
  });

  int remaining = total_prb;
  for (const std::size_t i : order_) {
    if (remaining <= 0) break;
    remaining -= grant(candidates, i, remaining, max_prb_per_ue, out);
  }
}

std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kRoundRobin: return std::make_unique<RoundRobinScheduler>();
    case SchedulerKind::kProportionalFair: return std::make_unique<ProportionalFairScheduler>();
  }
  return nullptr;
}

}  // namespace ltefp::lte
