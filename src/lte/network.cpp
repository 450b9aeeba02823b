#include "lte/network.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/parallel.hpp"

namespace ltefp::lte {
namespace {

constexpr TimeMs kPageRetryInterval = 500;  // ms between paging attempts

/// Below this many due UEs a subframe is processed serially without even
/// grouping into shards: the wheel's whole point is that most subframes
/// wake a handful of UEs, and shard bookkeeping would dominate.
constexpr std::size_t kMinDueForSharding = 64;

}  // namespace

Simulation::Simulation(std::uint64_t seed) : rng_(seed), epc_(rng_.fork()) {}

CellId Simulation::add_cell(const OperatorProfile& profile) {
  return add_cell(profile, CountermeasureConfig{}, false);
}

CellId Simulation::add_cell(const OperatorProfile& profile,
                            const CountermeasureConfig& countermeasures,
                            bool conceal_identity) {
  const auto cell = static_cast<CellId>(enbs_.size());
  EnbConfig config;
  config.cell = cell;
  config.profile = profile;
  config.countermeasures = countermeasures;
  config.conceal_identity = conceal_identity;
  enbs_.push_back(std::make_unique<Enb>(config, rng_.fork()));
  observers_.resize(enbs_.size());
  cell_results_.resize(enbs_.size());
  stepped_.resize(enbs_.size());
  shard_ues_.resize(enbs_.size() + 1);  // final slot collects un-camped UEs
  shard_scratch_.resize(enbs_.size() + 1);
  return cell;
}

UeId Simulation::add_ue(Imsi imsi) {
  const UeId ue = next_ue_++;
  camped_.push_back(kNoCell);
  rrc_.push_back(RrcState::kIdle);
  pending_ul_.push_back(0);
  pending_dl_.push_back(0);
  page_retry_at_.push_back(0);
  source_next_at_.push_back(kNeverMs);
  wake_at_.push_back(kNeverMs);
  imsi_.push_back(imsi);
  tmsi_.push_back(epc_.attach(imsi));
  source_.emplace_back();
  return ue;
}

void Simulation::reserve_ues(std::size_t count) {
  camped_.reserve(count);
  rrc_.reserve(count);
  pending_ul_.reserve(count);
  pending_dl_.reserve(count);
  page_retry_at_.reserve(count);
  source_next_at_.reserve(count);
  wake_at_.reserve(count);
  imsi_.reserve(count);
  tmsi_.reserve(count);
  source_.reserve(count);
  epc_.reserve(count);
}

void Simulation::set_traffic_source(UeId ue, std::unique_ptr<TrafficSource> source) {
  const std::size_t s = slot_of(ue);
  source_[s] = std::move(source);
  if (source_[s]) {
    source_next_at_[s] = now_;  // new source is due immediately
    schedule_wake(ue, now_);
  } else {
    source_next_at_[s] = kNeverMs;
  }
}

Enb& Simulation::enb_of(CellId cell) {
  if (cell >= enbs_.size()) throw std::out_of_range("Simulation: unknown cell");
  return *enbs_[cell];
}
const Enb& Simulation::enb_of(CellId cell) const {
  if (cell >= enbs_.size()) throw std::out_of_range("Simulation: unknown cell");
  return *enbs_[cell];
}

std::size_t Simulation::slot_of(UeId ue) const {
  if (ue == 0 || ue >= next_ue_) throw std::out_of_range("Simulation: unknown UE");
  return ue - 1;
}

void Simulation::schedule_wake(UeId ue, TimeMs at) {
  TimeMs& wake = wake_at_[ue - 1];
  if (at >= wake) return;  // an earlier wake-up is already pending
  wake = at;
  wheel_.insert(at, ue);   // the superseded entry goes stale and is dropped
}

void Simulation::camp(UeId ue, CellId cell) {
  if (cell >= enbs_.size()) throw std::out_of_range("Simulation::camp: unknown cell");
  const std::size_t s = slot_of(ue);
  if (camped_[s] != kNoCell && rrc_[s] != RrcState::kIdle) {
    enb_of(camped_[s]).release_ue(ue, now_);
  }
  camped_[s] = cell;
  rrc_[s] = RrcState::kIdle;
  // Pending data or a due source may now be actionable on the new cell.
  schedule_wake(ue, now_);
}

void Simulation::connect(UeId ue) {
  const std::size_t s = slot_of(ue);
  if (camped_[s] == kNoCell || rrc_[s] != RrcState::kIdle) return;
  enb_of(camped_[s]).start_connection(ue, tmsi_[s], now_);
  rrc_[s] = RrcState::kConnecting;
}

void Simulation::move(UeId ue, CellId target) {
  if (target >= enbs_.size()) throw std::out_of_range("Simulation::move: unknown cell");
  const std::size_t s = slot_of(ue);
  if (camped_[s] == target) return;
  if (rrc_[s] == RrcState::kConnected || rrc_[s] == RrcState::kConnecting) {
    // X2-style handover: leave the source silently, contention-free RACH in
    // the target under a brand-new C-RNTI.
    if (camped_[s] != kNoCell) enb_of(camped_[s]).release_ue(ue, now_);
    camped_[s] = target;
    rrc_[s] = RrcState::kConnecting;
    enb_of(target).admit_handover(ue, tmsi_[s], now_);
  } else {
    camped_[s] = target;  // idle reselection
    schedule_wake(ue, now_);
  }
}

void Simulation::add_observer(CellId cell, PdcchObserver& observer) {
  if (cell >= enbs_.size()) throw std::out_of_range("Simulation: unknown cell");
  observers_[cell].push_back(&observer);
}

void Simulation::process_ue(UeId ue, std::vector<AppPacket>& scratch,
                            std::vector<WheelEntry>* resched) {
  assert(ue >= 1 && ue < next_ue_);
  const std::size_t s = ue - 1;
  const bool reference = resched == nullptr;
  if (TrafficSource* src = source_[s].get(); src && (reference || source_next_at_[s] <= now_)) {
    scratch.clear();
    src->step(now_, scratch);
    if (!reference) source_next_at_[s] = src->next_event_after(now_);
    for (const AppPacket& pkt : scratch) {
      if (pkt.bytes <= 0) continue;
      if (rrc_[s] == RrcState::kConnected) {
        enbs_[camped_[s]]->push_traffic(ue, pkt.direction, pkt.bytes, now_);
      } else if (pkt.direction == Direction::kUplink) {
        pending_ul_[s] += pkt.bytes;
      } else {
        pending_dl_[s] += pkt.bytes;
      }
    }
  }
  if (rrc_[s] == RrcState::kIdle && camped_[s] != kNoCell) {
    if (pending_ul_[s] > 0) {
      // Mobile-originated data: UE RACHes on its own.
      enbs_[camped_[s]]->start_connection(ue, tmsi_[s], now_);
      rrc_[s] = RrcState::kConnecting;
    } else if (pending_dl_[s] > 0 && now_ >= page_retry_at_[s]) {
      // Mobile-terminated data: the core pages, the UE answers with RACH.
      enbs_[camped_[s]]->page(tmsi_[s]);
      enbs_[camped_[s]]->start_connection(ue, tmsi_[s], now_);
      rrc_[s] = RrcState::kConnecting;
      page_retry_at_[s] = now_ + kPageRetryInterval;
    }
  }
  if (!reference) {
    // Next wake-up: the source's declared next event, pulled earlier if an
    // idle UE still holds undelivered downlink and must poll its page-retry
    // clock. Idle uplink never waits (it RACHed above), and connecting/
    // connected transitions are driven by eNB events, not wake-ups.
    TimeMs wake = source_next_at_[s];
    if (rrc_[s] == RrcState::kIdle && camped_[s] != kNoCell && pending_dl_[s] > 0) {
      wake = std::min(wake, std::max(now_ + 1, page_retry_at_[s]));
    }
    if (wake < kNeverMs) {
      wake = std::max(wake, now_ + 1);
      wake_at_[s] = wake;  // drain() reset it to kNeverMs when this UE fired
      resched->push_back(WheelEntry{wake, ue});
    }
  }
}

void Simulation::apply_cell_result(const Enb& enb, const EnbStepResult& result,
                                   bool schedule_wakes) {
  for (const auto& est : result.established) {
    assert(est.ue >= 1 && est.ue < next_ue_);  // eNBs only learn UEs from us
    const std::size_t s = est.ue - 1;
    rrc_[s] = RrcState::kConnected;
    // Deliver data buffered while not connected. The camped cell is where
    // the context lives in every reachable case (a stale establish from an
    // abandoned RACH pushes into a context-less eNB, a no-op either way).
    Enb& camped_enb = *enbs_[camped_[s]];
    if (pending_ul_[s] > 0) {
      camped_enb.push_traffic(est.ue, Direction::kUplink, pending_ul_[s], now_);
      pending_ul_[s] = 0;
    }
    if (pending_dl_[s] > 0) {
      camped_enb.push_traffic(est.ue, Direction::kDownlink, pending_dl_[s], now_);
      pending_dl_[s] = 0;
    }
  }
  for (const UeId released : result.released) {
    assert(released >= 1 && released < next_ue_);
    const std::size_t s = released - 1;
    if (camped_[s] == enb.cell()) {
      rrc_[s] = RrcState::kIdle;
      // Re-evaluate the idle triggers next subframe. A released UE's next
      // source event is already on the wheel, so this only matters if the
      // UE somehow still holds pending data — unreachable today, but one
      // spurious wake-up is cheaper than relying on that proof forever.
      if (schedule_wakes) schedule_wake(released, now_ + 1);
    }
  }
}

void Simulation::dispatch_observers(CellId cell, const EnbStepResult& result) {
  for (PdcchObserver* obs : observers_[cell]) {
    for (const auto& e : result.rach) obs->on_rach(e);
    for (const auto& e : result.rars) obs->on_rar(e);
    for (const auto& e : result.rrc_requests) obs->on_rrc_request(e);
    for (const auto& e : result.rrc_setups) obs->on_rrc_setup(e);
    for (const auto& e : result.rrc_releases) obs->on_rrc_release(e);
    obs->on_subframe(result.pdcch);
  }
}

bool Simulation::step_cell(CellId cell) {
  Enb& enb = *enbs_[cell];
  if (enb.quiescent()) return false;
  enb.step(now_, cell_results_[cell]);
  return true;
}

void Simulation::step() {
  // --- Phases A and B: wake and process due UEs, then step every
  // non-quiescent cell.
  wheel_.drain(now_, wake_at_, due_);
  ue_events_ += due_.size();
  const std::size_t n_cells = enbs_.size();

  if (due_.size() < kMinDueForSharding || thread_count() == 1) {
    // Inline: due_ is already in UeId order, which is exactly the seed-era
    // iteration order. A sparse subframe is a few µs of work, less than
    // opening a pool region costs.
    ShardScratch& scratch = shard_scratch_.front();
    scratch.resched.clear();
    for (const UeId ue : due_) process_ue(ue, scratch.packets, &scratch.resched);
    for (const WheelEntry& e : scratch.resched) wheel_.insert(e.at, e.ue);
    for (std::size_t c = 0; c < n_cells; ++c) stepped_[c] = step_cell(static_cast<CellId>(c));
  } else {
    // One region, sharded by camped cell: a shard processes its cell's due
    // UEs, then steps that cell. It owns the cell's eNB (and its RNG stream)
    // plus its UEs' state slots, so shards are disjoint, and UeId order
    // within a shard preserves the eNB's draw order. Shard lists inherit
    // due_'s UeId sort by construction. A cell is a shard when it has due
    // UEs or is already non-quiescent: only its own UEs reach its eNB, so a
    // quiescent cell without due UEs stays quiescent.
    for (const UeId ue : due_) {
      const CellId cell = camped_[ue - 1];
      shard_ues_[cell == kNoCell ? n_cells : cell].push_back(ue);
    }
    for (std::size_t c = 0; c <= n_cells; ++c) {
      const bool busy = c < n_cells && !enbs_[c]->quiescent();
      if (busy || !shard_ues_[c].empty()) active_shards_.push_back(c);
    }
    const std::size_t n_shards = active_shards_.size();
    parallel_for(n_shards, 1, [&](std::size_t begin, std::size_t end) {
      for (std::size_t k = begin; k < end; ++k) {
        const std::size_t shard = active_shards_[k];
        ShardScratch& scratch = shard_scratch_[k];  // slot k: this shard only
        scratch.resched.clear();
        for (const UeId ue : shard_ues_[shard]) {
          process_ue(ue, scratch.packets, &scratch.resched);
        }
        if (shard < n_cells) stepped_[shard] = step_cell(static_cast<CellId>(shard));
      }
    });
    // Serial merge: re-insert deferred wake-ups. Wheel bucket order is
    // irrelevant (drain sorts), but we merge in shard order anyway.
    for (std::size_t k = 0; k < n_shards; ++k) {
      for (const WheelEntry& e : shard_scratch_[k].resched) wheel_.insert(e.at, e.ue);
      shard_ues_[active_shards_[k]].clear();
    }
    active_shards_.clear();
  }

  // --- Phase C: serial cross-cell merge in ascending cell order — the
  // seed-era dispatch order, bit-identical at any thread count. Quiescent
  // cells with observers still get their (empty) subframe: a sniffer sees
  // every subframe on the air whether or not anything was scheduled.
  for (std::size_t c = 0; c < n_cells; ++c) {
    if (stepped_[c]) {
      const EnbStepResult& result = cell_results_[c];
      apply_cell_result(*enbs_[c], result, /*schedule_wakes=*/true);
      dispatch_observers(static_cast<CellId>(c), result);
      stepped_[c] = 0;
    } else if (!observers_[c].empty()) {
      empty_pdcch_.time = now_;
      empty_pdcch_.cell = static_cast<CellId>(c);
      for (PdcchObserver* obs : observers_[c]) obs->on_subframe(empty_pdcch_);
    }
  }

  ++now_;
}

void Simulation::step_reference() {
  // 1. Application traffic generation and connection triggering, every UE.
  // One diagnostic event per UE per subframe: this is the dense-poll cost
  // the wheel engine's ue_events() is compared against.
  for (UeId ue = 1; ue < next_ue_; ++ue) {
    process_ue(ue, packet_scratch_, nullptr);
  }
  ue_events_ += static_cast<std::uint64_t>(next_ue_ - 1);
  // 2. Per-cell subframe processing and event dispatch.
  for (std::size_t c = 0; c < enbs_.size(); ++c) {
    EnbStepResult& result = cell_results_[c];
    enbs_[c]->step(now_, result);
    apply_cell_result(*enbs_[c], result, /*schedule_wakes=*/false);
    dispatch_observers(static_cast<CellId>(c), result);
  }
  ++now_;
}

void Simulation::run_for(TimeMs duration) {
  const TimeMs end = now_ + duration;
  while (now_ < end) step();
}

void Simulation::run_for_reference(TimeMs duration) {
  const TimeMs end = now_ + duration;
  while (now_ < end) step_reference();
}

std::optional<Rnti> Simulation::current_rnti(UeId ue) const {
  const std::size_t s = slot_of(ue);
  if (camped_[s] == kNoCell) return std::nullopt;
  return enb_of(camped_[s]).rnti_of(ue);
}

Tmsi Simulation::tmsi_of(UeId ue) const { return tmsi_[slot_of(ue)]; }
Imsi Simulation::imsi_of(UeId ue) const { return imsi_[slot_of(ue)]; }

bool Simulation::is_connected(UeId ue) const {
  return rrc_[slot_of(ue)] == RrcState::kConnected;
}

CellId Simulation::camped_cell(UeId ue) const { return camped_[slot_of(ue)]; }

const OperatorProfile& Simulation::cell_profile(CellId cell) const {
  return enb_of(cell).profile();
}

}  // namespace ltefp::lte
