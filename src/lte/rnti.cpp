#include "lte/rnti.hpp"

#include <stdexcept>

namespace ltefp::lte {

RntiManager::RntiManager(RntiManagerConfig config, Rng rng)
    : config_(config),
      rng_(rng),
      active_(std::size_t{1} << 16, false),
      cooling_(std::size_t{1} << 16, false) {}

void RntiManager::expire_cooldowns(TimeMs now) {
  while (cooldown_head_ < cooldown_.size() &&
         now - cooldown_[cooldown_head_].released_at >= config_.reuse_cooldown) {
    cooling_[cooldown_[cooldown_head_].rnti] = false;
    ++cooldown_head_;
  }
  if (2 * cooldown_head_ >= cooldown_.size()) {
    cooldown_.erase(cooldown_.begin(),
                    cooldown_.begin() + static_cast<std::ptrdiff_t>(cooldown_head_));
    cooldown_head_ = 0;
  }
}

Rnti RntiManager::take(Rnti rnti) {
  active_[rnti] = true;
  ++active_count_;
  return rnti;
}

Rnti RntiManager::allocate(TimeMs now) {
  expire_cooldowns(now);
  constexpr int kPoolSize = kMaxCRnti - kMinCRnti + 1;
  if (config_.randomize) {
    // Rejection sampling: the pool is ~65k values and cells hold at most a
    // few hundred active UEs, so this terminates almost immediately.
    for (int attempt = 0; attempt < 4 * kPoolSize; ++attempt) {
      const auto candidate =
          static_cast<Rnti>(rng_.uniform_int(kMinCRnti, kMaxCRnti));
      if (usable(candidate)) return take(candidate);
    }
    throw std::runtime_error("RntiManager: C-RNTI pool exhausted");
  }
  for (int attempt = 0; attempt < kPoolSize; ++attempt) {
    const Rnti candidate = next_sequential_;
    next_sequential_ =
        next_sequential_ >= kMaxCRnti ? kMinCRnti : static_cast<Rnti>(next_sequential_ + 1);
    if (usable(candidate)) return take(candidate);
  }
  throw std::runtime_error("RntiManager: C-RNTI pool exhausted");
}

void RntiManager::release(Rnti rnti, TimeMs now) {
  if (!active_[rnti]) return;  // double release is a no-op
  active_[rnti] = false;
  cooling_[rnti] = true;
  --active_count_;
  cooldown_.push_back(Cooldown{rnti, now});
}

}  // namespace ltefp::lte
