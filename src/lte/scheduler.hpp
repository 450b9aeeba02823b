// MAC-layer PRB schedulers.
//
// Operator-specific scheduling is one of the reasons the paper retrains per
// carrier ("Traffic patterns and frame metadata are sensitive to
// operator-specific configuration, such as the specific resource scheduling
// algorithms that eNodeBs use"). We provide the two classic disciplines:
// round-robin (our lab eNodeB) and proportional-fair (commercial cells).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/sim_time.hpp"
#include "lte/types.hpp"

namespace ltefp::lte {

/// Scheduler's view of one UE with pending data in one direction.
struct SchedCandidate {
  Rnti rnti = 0;
  int buffer_bytes = 0;   // pending payload
  int mcs = 0;            // link-adapted I_MCS for this UE right now
  double avg_rate = 1.0;  // EWMA served rate (bytes/ms), for PF
};

/// One grant decided for this subframe.
struct SchedDecision {
  std::size_t candidate = 0;  // index into the candidate list
  Rnti rnti = 0;
  int nprb = 0;
  int mcs = 0;
  int tb_bytes = 0;  // TBS implied by (mcs, nprb); >= payload actually sent
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Partitions up to `total_prb` PRBs of one direction of one subframe
  /// among the candidates. `max_prb_per_ue` caps a single grant. The grants
  /// replace the contents of `out`, whose capacity the caller keeps from
  /// subframe to subframe, so a steady-state call allocates nothing.
  virtual void schedule(std::span<const SchedCandidate> candidates, int total_prb,
                        int max_prb_per_ue, std::vector<SchedDecision>& out) = 0;

  virtual const char* name() const = 0;
};

/// Round-robin: serves candidates in rotating order, each getting exactly
/// the PRBs its buffer needs (capped).
class RoundRobinScheduler final : public Scheduler {
 public:
  void schedule(std::span<const SchedCandidate> candidates, int total_prb, int max_prb_per_ue,
                std::vector<SchedDecision>& out) override;
  const char* name() const override { return "round-robin"; }

 private:
  std::size_t next_start_ = 0;
};

/// Proportional fair: serves candidates by descending instantaneous-rate /
/// average-rate metric; equal metrics are served in ascending candidate
/// order.
class ProportionalFairScheduler final : public Scheduler {
 public:
  void schedule(std::span<const SchedCandidate> candidates, int total_prb, int max_prb_per_ue,
                std::vector<SchedDecision>& out) override;
  const char* name() const override { return "proportional-fair"; }

 private:
  // Per-call scratch, kept for its capacity.
  std::vector<std::size_t> order_;
  std::vector<double> metric_;
};

enum class SchedulerKind { kRoundRobin, kProportionalFair };

std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind);

}  // namespace ltefp::lte
