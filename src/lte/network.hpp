// Whole-network discrete-event simulation: EPC + cells (eNBs) + UEs with
// attached traffic sources, clocked at 1 ms subframes.
//
// The Simulation wires application traffic into the radio stack and
// reproduces the connection-lifecycle side channel the paper exploits:
// idle UEs receiving downlink data get paged, re-RACH, and come back under
// a *new* RNTI; uplink data from idle triggers the same RACH with the
// plain-text S-TMSI on the air.
//
// City-scale event engine (see DESIGN.md "City-scale event engine"):
// step() no longer polls every UE every subframe. A hashed timer wheel
// holds one pending wake-up per UE; a subframe drains only the UEs that
// are actually due (next app packet, page retry, post-release trigger),
// processes them and steps only non-quiescent cells (inline when few UEs
// are due, else in one pool region sharded by camped cell), and merges
// results serially in ascending cell order. The result is bit-identical
// to the seed-era dense loop — kept as step_reference() — at any thread
// count.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "lte/enb.hpp"
#include "lte/epc.hpp"
#include "lte/observer.hpp"
#include "lte/timer_wheel.hpp"
#include "lte/traffic.hpp"

namespace ltefp::lte {

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed);

  /// Adds a cell with the given profile; cell ids are assigned sequentially.
  CellId add_cell(const OperatorProfile& profile);

  /// Adds a cell with privacy countermeasures and/or 5G-style identity
  /// concealment enabled (Section VIII-B/C experiments).
  CellId add_cell(const OperatorProfile& profile, const CountermeasureConfig& countermeasures,
                  bool conceal_identity = false);

  /// Adds a subscriber (attaches to the EPC, which assigns a TMSI).
  UeId add_ue(Imsi imsi);

  /// Pre-sizes UE state for a known population (city scenarios add millions
  /// of UEs; this avoids repeated growth of the hot arrays and EPC maps).
  void reserve_ues(std::size_t count);

  /// Attaches/replaces the UE's traffic generator (may be null for a silent UE).
  void set_traffic_source(UeId ue, std::unique_ptr<TrafficSource> source);

  /// Idle camping on a cell (cell selection). Drops any existing connection
  /// without handover.
  void camp(UeId ue, CellId cell);

  /// Triggers an RRC connection on the camped cell (no-op if already
  /// connected/connecting). Connections also start automatically when
  /// traffic arrives for an idle UE.
  void connect(UeId ue);

  /// Moves the UE to another cell: X2 handover when connected (contention-
  /// free RACH in the target, new C-RNTI), plain reselection when idle.
  void move(UeId ue, CellId target);

  /// Registers a sniffer on a cell. Observers must outlive the simulation.
  void add_observer(CellId cell, PdcchObserver& observer);

  /// Advances one 1 ms subframe through the timer-wheel event engine.
  void step();

  /// Advances one subframe through the seed-era dense loop: every UE's
  /// source is polled, every cell is stepped, serially. Kept as the
  /// bit-identity oracle for the event engine; a Simulation instance must
  /// be driven by either step() or step_reference() exclusively (the
  /// reference path does not maintain the wheel).
  void step_reference();

  /// Runs for `duration` ms.
  void run_for(TimeMs duration);

  /// run_for() through the reference engine (oracle/bench use only).
  void run_for_reference(TimeMs duration);

  TimeMs now() const { return now_; }

  // --- Introspection (ground truth for labeling; never visible to sniffers).
  std::optional<Rnti> current_rnti(UeId ue) const;
  Tmsi tmsi_of(UeId ue) const;
  Imsi imsi_of(UeId ue) const;
  bool is_connected(UeId ue) const;
  CellId camped_cell(UeId ue) const;
  const OperatorProfile& cell_profile(CellId cell) const;

  /// UE wake-up events dispatched by step() so far (diagnostics; the dense
  /// reference loop instead counts one event per UE per subframe).
  std::uint64_t ue_events() const { return ue_events_; }

  Epc& epc() { return epc_; }
  Rng& rng() { return rng_; }

 private:
  enum class RrcState : std::uint8_t { kIdle, kConnecting, kConnected };

  /// Per-shard scratch for the sharded region (traffic generation): each
  /// shard gets its own packet buffer and deferred wheel re-insert list so
  /// shards never touch shared state.
  struct ShardScratch {
    std::vector<AppPacket> packets;
    std::vector<WheelEntry> resched;
  };

  Enb& enb_of(CellId cell);
  const Enb& enb_of(CellId cell) const;
  /// Dense slot for a UE handle; throws std::out_of_range for unknown ids
  /// (public-API boundary — internal dispatch uses asserts instead).
  std::size_t slot_of(UeId ue) const;

  /// The per-UE subframe body shared by both engines: polls the traffic
  /// source (gated on its declared next event unless `resched` is null,
  /// which marks the dense reference path), routes packets, evaluates the
  /// idle-UE connection triggers, and — in wheel mode — computes and
  /// records the UE's next wake-up.
  void process_ue(UeId ue, std::vector<AppPacket>& scratch, std::vector<WheelEntry>* resched);

  /// Steps the cell into cell_results_[cell] unless it is quiescent;
  /// returns whether it was stepped.
  bool step_cell(CellId cell);

  /// Applies a cell's step result to UE state (established/released).
  void apply_cell_result(const Enb& enb, const EnbStepResult& result, bool schedule_wakes);
  void dispatch_observers(CellId cell, const EnbStepResult& result);

  /// Min-updates the UE's pending wake-up (serial contexts only).
  void schedule_wake(UeId ue, TimeMs at);

  Rng rng_;
  Epc epc_;
  std::vector<std::unique_ptr<Enb>> enbs_;

  // --- UE state, struct-of-arrays. Hot fields live in contiguous arrays
  // indexed by dense slot (UeId - 1) so the wheel drain walks cache-
  // linearly; identity and the source pointer are cold and live apart.
  std::vector<CellId> camped_;
  std::vector<RrcState> rrc_;
  std::vector<int> pending_ul_;          // generated while not connected
  std::vector<int> pending_dl_;          // waiting at the core for paging
  std::vector<TimeMs> page_retry_at_;    // next time we may page this UE
  std::vector<TimeMs> source_next_at_;   // source's declared next event
  std::vector<TimeMs> wake_at_;          // authoritative pending wake-up
  std::vector<Imsi> imsi_;               // cold
  std::vector<Tmsi> tmsi_;               // cold-ish (read on triggers only)
  std::vector<std::unique_ptr<TrafficSource>> source_;  // cold

  TimerWheel wheel_;
  std::vector<UeId> due_;                        // this subframe, UeId-sorted
  std::vector<std::vector<UeId>> shard_ues_;     // per cell; last = un-camped
  std::vector<std::size_t> active_shards_;       // shard ids run this subframe
  std::vector<ShardScratch> shard_scratch_;      // slot k <-> active_shards_[k]
  std::vector<EnbStepResult> cell_results_;      // indexed by CellId, reused
  // Per cell: stepped this subframe. Bytes, not vector<bool>: shards write
  // their own cell's entry concurrently.
  std::vector<std::uint8_t> stepped_;

  std::vector<std::vector<PdcchObserver*>> observers_;  // indexed by CellId
  TimeMs now_ = 0;
  UeId next_ue_ = 1;
  std::uint64_t ue_events_ = 0;
  std::vector<AppPacket> packet_scratch_;  // serial paths only
  PdcchSubframe empty_pdcch_;              // reused for quiescent observed cells
};

}  // namespace ltefp::lte
