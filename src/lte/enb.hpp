// Evolved Node B: per-cell MAC/RRC machinery.
//
// Owns the C-RNTI pool, connected-UE contexts (buffers, channel state,
// inactivity timers), the PRB scheduler, and the RACH/RRC connection state
// machine. Each 1 ms step produces the cell's PDCCH subframe — the exact
// byte stream a passive sniffer sees — plus the RRC-procedure messages the
// identity-mapping attack consumes.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "lte/channel.hpp"
#include "lte/countermeasures.hpp"
#include "lte/dci.hpp"
#include "lte/operator_profile.hpp"
#include "lte/rnti.hpp"
#include "lte/rrc.hpp"
#include "lte/scheduler.hpp"

namespace ltefp::lte {

struct EnbConfig {
  CellId cell = 0;
  OperatorProfile profile;
  /// Optional privacy countermeasures (Section VIII-B experiments).
  CountermeasureConfig countermeasures;
  /// 5G-style identity concealment (Section VIII-C): Msg3 carries a
  /// one-time SUCI-like value instead of the stable S-TMSI, so passive
  /// RNTI<->TMSI mapping breaks even though the RRC procedure is unchanged.
  bool conceal_identity = false;
};

/// Everything that happened in one subframe, for the network to dispatch to
/// UEs and observers (sniffers).
struct EnbStepResult {
  PdcchSubframe pdcch;
  std::vector<RachPreamble> rach;
  std::vector<RandomAccessResponse> rars;
  std::vector<RrcConnectionRequest> rrc_requests;
  std::vector<RrcConnectionSetup> rrc_setups;
  std::vector<RrcConnectionRelease> rrc_releases;

  struct Established {
    UeId ue = 0;
    Rnti rnti = 0;
  };
  std::vector<Established> established;  // connections completed this subframe
  std::vector<UeId> released;            // UEs dropped to idle this subframe

  /// Empties every list, keeping their capacity for the next subframe.
  void clear();
};

class Enb {
 public:
  Enb(EnbConfig config, Rng rng);

  CellId cell() const { return config_.cell; }
  const OperatorProfile& profile() const { return config_.profile; }

  /// Begins a contention-based RACH + RRC connection for an idle UE.
  /// Completion (~8 ms later) is reported via EnbStepResult::established.
  /// No-op if the UE is already connected or connecting.
  void start_connection(UeId ue, Tmsi tmsi, TimeMs now);

  /// Admits a UE arriving via X2 handover: contention-free RACH, so the new
  /// C-RNTI is live within ~4 ms and no RRCConnectionRequest (with its
  /// plain-text S-TMSI) appears on the air.
  void admit_handover(UeId ue, Tmsi tmsi, TimeMs now);

  /// Explicit release (e.g. source side of a handover).
  void release_ue(UeId ue, TimeMs now);

  bool is_connected(UeId ue) const { return contexts_.contains(ue); }
  bool is_connecting(UeId ue) const;
  std::optional<Rnti> rnti_of(UeId ue) const;

  /// True when a step() would be a provable no-op: no contexts (so no
  /// channel evolution, rekey, dummy-grant or scheduler RNG draws), no
  /// in-flight RACH procedures, no queued pages and no pending HARQ
  /// retransmissions. The schedulers hold no per-subframe state on an empty
  /// candidate list (RoundRobin only advances its cursor when it serves
  /// someone), so the event engine may skip stepping a quiescent cell
  /// entirely and synthesize the empty PdcchSubframe for observers.
  bool quiescent() const {
    return contexts_.empty() && pending_.empty() && page_queue_.empty() && retx_queue_.empty();
  }

  /// Queues application payload for a connected UE. Callers must not push
  /// for idle UEs (the network layer buffers and pages instead).
  void push_traffic(UeId ue, Direction dir, int bytes, TimeMs now);

  /// Emits a paging indication (P-RNTI DCI) in the next subframe.
  void page(Tmsi tmsi);

  /// Runs one 1 ms subframe: progresses RACH procedures, applies inactivity
  /// release, link-adapts, schedules both directions, and emits DCIs into
  /// `result`, which is cleared first (its buffers are reused). While the
  /// cell holds any connected UE it must be stepped once per subframe, with
  /// consecutive times: each UE's fading process advances one update per
  /// subframe since its connection, caught up when its MCS is next read.
  void step(TimeMs now, EnbStepResult& result);

 private:
  struct UeContext {
    Rnti rnti = 0;
    Tmsi tmsi = 0;
    int dl_buffer = 0;  // bytes pending at the eNB for this UE
    int ul_buffer = 0;  // bytes the UE reported via BSR
    TimeMs last_activity = 0;
    ChannelModel channel;
    TimeMs channel_at = 0;     // last subframe `channel` was stepped for
    double avg_rate_dl = 1.0;  // EWMA bytes/ms, PF metric state
    double avg_rate_ul = 1.0;
    std::uint8_t next_harq = 0;
    TimeMs last_rekey = 0;     // countermeasure: forced C-RNTI re-key clock
  };

  struct PendingConnection {
    UeId ue = 0;
    Tmsi tmsi = 0;
    Rnti rnti = 0;  // assigned at RAR time
    TimeMs started = 0;
    bool contention_free = false;  // handover admission
    std::uint8_t preamble = 0;
    int phase = 0;  // index into the message schedule
    Tmsi on_air_identity = 0;      // SUCI-like one-time value when concealing
  };

  UeContext make_context(Tmsi tmsi, Rnti rnti, TimeMs now);
  /// The UE's link-adapted MCS at `now`, after catching its channel up.
  static int mcs_at(UeContext& ctx, TimeMs now);
  void schedule_direction(Direction dir, TimeMs now, EnbStepResult& result);
  void complete_connection(PendingConnection& pc, TimeMs now, EnbStepResult& result);

  EnbConfig config_;
  Rng rng_;
  RntiManager rnti_manager_;
  std::unique_ptr<Scheduler> dl_scheduler_;
  std::unique_ptr<Scheduler> ul_scheduler_;
  // Ordered by UeId: step() iterates this to build scheduler candidate
  // lists, drive RNG-consuming countermeasures, and emit releases, so the
  // iteration order is part of the deterministic-replay contract.
  std::map<UeId, UeContext> contexts_;
  std::vector<PendingConnection> pending_;
  std::deque<Tmsi> page_queue_;
  /// HARQ retransmissions scheduled for a future subframe.
  std::vector<std::pair<TimeMs, Dci>> retx_queue_;
  int total_prb_ = 0;

  // step() scratch, reused across subframes: a steady-state step (no
  // connection set up or released) allocates nothing.
  std::vector<UeId> to_release_;
  std::vector<SchedCandidate> candidates_;
  std::vector<UeContext*> owners_;         // parallel to candidates_
  std::vector<SchedDecision> decisions_;   // the scheduler's output
  std::vector<int> served_;                // TB bytes granted per candidate
};

}  // namespace ltefp::lte
