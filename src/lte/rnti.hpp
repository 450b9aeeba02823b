// C-RNTI pool management for one eNB.
//
// Section II-A of the paper: "The RNTI may change randomly ... based on
// network policies or UE activity"; a UE that stays idle past the
// inactivity threshold (default 10 s) is released and receives a *new*
// RNTI on its next connection. The manager allocates from the C-RNTI value
// space, optionally randomising assignment order (an operator policy), and
// enforces a reuse cooldown so a just-released RNTI is not immediately
// handed to a different UE — which in real networks would poison passive
// trackers.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "lte/types.hpp"

namespace ltefp::lte {

struct RntiManagerConfig {
  bool randomize = true;         // random vs sequential assignment
  TimeMs reuse_cooldown = 5000;  // ms before a released value may be reissued
};

class RntiManager {
 public:
  RntiManager(RntiManagerConfig config, Rng rng);

  /// Allocates a fresh C-RNTI distinct from every currently-active one and
  /// from values released within the cooldown. Throws std::runtime_error on
  /// pool exhaustion (not reachable at realistic cell loads).
  Rnti allocate(TimeMs now);

  /// Returns a C-RNTI to the pool.
  void release(Rnti rnti, TimeMs now);

  bool is_active(Rnti rnti) const { return active_[rnti]; }
  std::size_t active_count() const { return active_count_; }

 private:
  bool usable(Rnti rnti) const { return !active_[rnti] && !cooling_[rnti]; }
  void expire_cooldowns(TimeMs now);
  Rnti take(Rnti rnti);

  RntiManagerConfig config_;
  Rng rng_;
  // One bit per 16-bit value in each set, sized once: allocation and
  // release touch no heap once the cooldown FIFO has reached its peak length.
  std::vector<bool> active_;
  std::vector<bool> cooling_;
  std::size_t active_count_ = 0;
  struct Cooldown {
    Rnti rnti;
    TimeMs released_at;
  };
  // Release-ordered FIFO: live entries are [cooldown_head_, size()); the
  // expired prefix is dropped once it is at least half the vector.
  std::vector<Cooldown> cooldown_;
  std::size_t cooldown_head_ = 0;
  Rnti next_sequential_ = kMinCRnti;
};

}  // namespace ltefp::lte
