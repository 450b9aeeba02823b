#include "lte/enb.hpp"

#include <algorithm>

#include "lte/tbs.hpp"

namespace ltefp::lte {
namespace {

// Contention-based RACH message timeline, in ms after start_connection():
// Msg1 preamble, Msg2 RAR (+RNTI), Msg3 RRCConnectionRequest (S-TMSI in
// plain text), Msg4 RRCConnectionSetup (contention resolution identity).
constexpr TimeMs kMsg1Offset = 0;
constexpr TimeMs kMsg2Offset = 3;
constexpr TimeMs kMsg3Offset = 5;
constexpr TimeMs kMsg4Offset = 8;

// Contention-free (handover) timeline: dedicated preamble, RAR, done.
constexpr TimeMs kCfMsg1Offset = 0;
constexpr TimeMs kCfMsg2Offset = 2;
constexpr TimeMs kCfDoneOffset = 4;

// PF EWMA smoothing factor (classic T_c = 100 TTIs).
constexpr double kPfAlpha = 0.01;

// HARQ round-trip: a failed TB is retransmitted 8 subframes later.
constexpr TimeMs kHarqRtt = 8;

}  // namespace

void EnbStepResult::clear() {
  pdcch.dcis.clear();
  rach.clear();
  rars.clear();
  rrc_requests.clear();
  rrc_setups.clear();
  rrc_releases.clear();
  established.clear();
  released.clear();
}

Enb::Enb(EnbConfig config, Rng rng)
    : config_(config),
      rng_(rng),
      rnti_manager_(RntiManagerConfig{}, rng_.fork()),
      dl_scheduler_(make_scheduler(config.profile.scheduler)),
      ul_scheduler_(make_scheduler(config.profile.scheduler)),
      total_prb_(prb_count(config.profile.bandwidth)) {
  // Each direction grants at most total_prb_ transport blocks a subframe
  // (a grant takes at least one PRB), and a failed one waits kHarqRtt
  // subframes, so the retransmission queue never outgrows this.
  if (config_.profile.harq_bler > 0.0) {
    retx_queue_.reserve(static_cast<std::size_t>(2 * kHarqRtt * total_prb_));
  }
}

Enb::UeContext Enb::make_context(Tmsi tmsi, Rnti rnti, TimeMs now) {
  ChannelConfig cc;
  cc.mean_snr_db = config_.profile.mean_snr_db;
  cc.volatility_db = config_.profile.channel_volatility_db;
  UeContext ctx{.rnti = rnti,
                .tmsi = tmsi,
                .dl_buffer = 0,
                .ul_buffer = 0,
                .last_activity = now,
                .channel = ChannelModel(cc, rng_.fork()),
                .channel_at = now - 1,  // first stepped for `now`
                .avg_rate_dl = 1.0,
                .avg_rate_ul = 1.0,
                .next_harq = 0};
  return ctx;
}

int Enb::mcs_at(UeContext& ctx, TimeMs now) {
  // The fading process takes one step per subframe the context exists. It
  // draws only from its own RNG fork, so stepping it here, once per missed
  // subframe, gives the same SNR sequence as stepping every context every
  // subframe, and draws nothing for an idle tail that ends in release.
  for (; ctx.channel_at < now; ++ctx.channel_at) ctx.channel.step();
  return ctx.channel.current_mcs();
}

bool Enb::is_connecting(UeId ue) const {
  return std::any_of(pending_.begin(), pending_.end(),
                     [ue](const PendingConnection& pc) { return pc.ue == ue; });
}

std::optional<Rnti> Enb::rnti_of(UeId ue) const {
  const auto it = contexts_.find(ue);
  if (it == contexts_.end()) return std::nullopt;
  return it->second.rnti;
}

void Enb::start_connection(UeId ue, Tmsi tmsi, TimeMs now) {
  if (is_connected(ue) || is_connecting(ue)) return;
  PendingConnection pc;
  pc.ue = ue;
  pc.tmsi = tmsi;
  pc.started = now;
  pc.contention_free = false;
  pc.preamble = static_cast<std::uint8_t>(rng_.uniform_int(0, 63));
  pending_.push_back(pc);
}

void Enb::admit_handover(UeId ue, Tmsi tmsi, TimeMs now) {
  if (is_connected(ue) || is_connecting(ue)) return;
  PendingConnection pc;
  pc.ue = ue;
  pc.tmsi = tmsi;
  pc.started = now;
  pc.contention_free = true;
  // Dedicated preambles live in the reserved upper range.
  pc.preamble = static_cast<std::uint8_t>(rng_.uniform_int(52, 63));
  pending_.push_back(pc);
}

void Enb::release_ue(UeId ue, TimeMs now) {
  const auto it = contexts_.find(ue);
  if (it == contexts_.end()) return;
  rnti_manager_.release(it->second.rnti, now);
  contexts_.erase(it);
}

void Enb::push_traffic(UeId ue, Direction dir, int bytes, TimeMs now) {
  auto it = contexts_.find(ue);
  if (it == contexts_.end() || bytes <= 0) return;
  auto& ctx = it->second;
  if (dir == Direction::kDownlink) {
    ctx.dl_buffer += bytes;
  } else {
    ctx.ul_buffer += bytes;
  }
  ctx.last_activity = now;
}

void Enb::page(Tmsi tmsi) { page_queue_.push_back(tmsi); }

void Enb::complete_connection(PendingConnection& pc, TimeMs now, EnbStepResult& result) {
  contexts_.emplace(pc.ue, make_context(pc.tmsi, pc.rnti, now));
  result.established.push_back(EnbStepResult::Established{pc.ue, pc.rnti});
}

void Enb::step(TimeMs now, EnbStepResult& result) {
  result.clear();
  result.pdcch.time = now;
  result.pdcch.cell = config_.cell;

  // --- Paging indications: one P-RNTI DCI per queued page. On the real
  // PDCCH the paging record set rides on the PDSCH; a sniffer observes the
  // P-RNTI DCI itself.
  while (!page_queue_.empty()) {
    page_queue_.pop_front();
    Dci dci;
    dci.direction = Direction::kDownlink;
    dci.rnti = kPagingRnti;
    dci.mcs = 2;
    dci.nprb = 2;
    result.pdcch.dcis.push_back(encode_dci(dci));
  }

  // --- RACH / RRC state machines.
  for (auto it = pending_.begin(); it != pending_.end();) {
    auto& pc = *it;
    const TimeMs elapsed = now - pc.started;
    bool done = false;
    if (pc.contention_free) {
      if (elapsed == kCfMsg1Offset) {
        result.rach.push_back(RachPreamble{now, config_.cell, pc.preamble});
      } else if (elapsed == kCfMsg2Offset) {
        pc.rnti = rnti_manager_.allocate(now);
        result.rars.push_back(RandomAccessResponse{now, config_.cell, pc.preamble, pc.rnti});
      } else if (elapsed >= kCfDoneOffset) {
        complete_connection(pc, now, result);
        done = true;
      }
    } else {
      if (elapsed == kMsg1Offset) {
        result.rach.push_back(RachPreamble{now, config_.cell, pc.preamble});
      } else if (elapsed == kMsg2Offset) {
        pc.rnti = rnti_manager_.allocate(now);
        result.rars.push_back(RandomAccessResponse{now, config_.cell, pc.preamble, pc.rnti});
      } else if (elapsed == kMsg3Offset) {
        // With 5G-style concealment, the on-air identity is a one-time
        // SUCI-like value; otherwise the plain S-TMSI leaks (the side
        // channel the paper's identity mapping rides on).
        Tmsi on_air = pc.tmsi;
        if (config_.conceal_identity) {
          on_air = static_cast<Tmsi>(rng_());
          pc.on_air_identity = on_air;
        }
        result.rrc_requests.push_back(RrcConnectionRequest{now, config_.cell, pc.rnti, on_air});
      } else if (elapsed >= kMsg4Offset) {
        const Tmsi echoed = config_.conceal_identity ? pc.on_air_identity : pc.tmsi;
        result.rrc_setups.push_back(RrcConnectionSetup{now, config_.cell, pc.rnti, echoed});
        // Msg4 is itself a downlink allocation to the fresh C-RNTI.
        Dci dci;
        dci.direction = Direction::kDownlink;
        dci.rnti = pc.rnti;
        dci.mcs = 4;
        dci.nprb = 2;
        result.pdcch.dcis.push_back(encode_dci(dci));
        complete_connection(pc, now, result);
        done = true;
      }
    }
    it = done ? pending_.erase(it) : std::next(it);
  }

  // --- Inactivity release. Link adaptation is lazy (mcs_at), so contexts
  // are only read here; the walk also notes which directions hold bytes.
  to_release_.clear();
  bool dl_pending = false;
  bool ul_pending = false;
  for (const auto& [ue, ctx] : contexts_) {
    dl_pending |= ctx.dl_buffer > 0;
    ul_pending |= ctx.ul_buffer > 0;
    const bool drained = ctx.dl_buffer == 0 && ctx.ul_buffer == 0;
    if (drained && now - ctx.last_activity >= config_.profile.inactivity_timeout) {
      to_release_.push_back(ue);
    }
  }
  for (const UeId ue : to_release_) {
    const auto it = contexts_.find(ue);
    result.rrc_releases.push_back(RrcConnectionRelease{now, config_.cell, it->second.rnti});
    rnti_manager_.release(it->second.rnti, now);
    contexts_.erase(it);
    result.released.push_back(ue);
  }

  // --- HARQ retransmissions that fell due: same grant, NDI untoggled.
  for (std::size_t i = 0; i < retx_queue_.size();) {
    if (retx_queue_[i].first <= now) {
      result.pdcch.dcis.push_back(encode_dci(retx_queue_[i].second));
      retx_queue_[i] = retx_queue_.back();
      retx_queue_.pop_back();
    } else {
      ++i;
    }
  }

  // --- Countermeasure: periodic C-RNTI re-key. The reconfiguration is
  // carried inside the encrypted RRC connection, so the air interface
  // shows only: old RNTI falls silent, an unknown new one appears.
  if (config_.countermeasures.rnti_rekey_period > 0) {
    for (auto& [ue, ctx] : contexts_) {
      if (ctx.last_rekey == 0) ctx.last_rekey = now;
      if (now - ctx.last_rekey >= config_.countermeasures.rnti_rekey_period) {
        const Rnti fresh = rnti_manager_.allocate(now);
        rnti_manager_.release(ctx.rnti, now);
        ctx.rnti = fresh;
        ctx.last_rekey = now;
      }
    }
  }

  // --- Countermeasure: chaff grants to idle-but-connected UEs, blurring
  // per-app activity patterns.
  if (config_.countermeasures.dummy_grant_rate > 0.0) {
    for (auto& [ue, ctx] : contexts_) {
      if (ctx.dl_buffer > 0) continue;
      if (!rng_.bernoulli(config_.countermeasures.dummy_grant_rate)) continue;
      Dci dci;
      dci.direction = Direction::kDownlink;
      dci.rnti = ctx.rnti;
      dci.mcs = static_cast<std::uint8_t>(mcs_at(ctx, now));
      dci.nprb = static_cast<std::uint8_t>(rng_.uniform_int(1, 8));
      result.pdcch.dcis.push_back(encode_dci(dci));
    }
  }

  // --- Scheduling, both directions (FDD: independent PRB budgets). A
  // direction with no bytes anywhere has no candidates, and both schedulers
  // return on an empty list without touching their state.
  if (dl_pending) schedule_direction(Direction::kDownlink, now, result);
  if (ul_pending) schedule_direction(Direction::kUplink, now, result);
}

void Enb::schedule_direction(Direction dir, TimeMs now, EnbStepResult& result) {
  candidates_.clear();
  owners_.clear();
  for (auto& [ue, ctx] : contexts_) {
    const int buffer = dir == Direction::kDownlink ? ctx.dl_buffer : ctx.ul_buffer;
    if (buffer <= 0) continue;
    SchedCandidate c;
    c.rnti = ctx.rnti;
    c.buffer_bytes = buffer;
    c.mcs = mcs_at(ctx, now);
    c.avg_rate = dir == Direction::kDownlink ? ctx.avg_rate_dl : ctx.avg_rate_ul;
    candidates_.push_back(c);
    owners_.push_back(&ctx);
  }

  Scheduler& scheduler = dir == Direction::kDownlink ? *dl_scheduler_ : *ul_scheduler_;
  scheduler.schedule(candidates_, total_prb_, config_.profile.max_prb_per_ue, decisions_);

  // Apply grants: drain buffers, update PF state, emit DCIs.
  served_.assign(candidates_.size(), 0);
  for (const auto& d : decisions_) {
    int nprb = d.nprb;
    if (config_.countermeasures.pad_to_bytes > 0) {
      // Traffic morphing: round the grant up the padding ladder so the
      // observable TBS no longer tracks the app payload precisely.
      const int padded = pad_tb_bytes(d.tb_bytes, config_.countermeasures);
      nprb = prbs_needed(d.mcs, padded, config_.profile.max_prb_per_ue);
    }
    Dci dci;
    dci.direction = dir;
    dci.rnti = d.rnti;
    dci.mcs = static_cast<std::uint8_t>(d.mcs);
    dci.nprb = static_cast<std::uint8_t>(nprb);
    dci.ndi = true;
    result.pdcch.dcis.push_back(encode_dci(dci));
    served_[d.candidate] = d.tb_bytes;
    // Transport-block failure: the same grant reappears one HARQ RTT
    // later with the NDI untoggled.
    if (config_.profile.harq_bler > 0.0 && rng_.bernoulli(config_.profile.harq_bler)) {
      Dci retx = dci;
      retx.ndi = false;
      retx_queue_.emplace_back(now + kHarqRtt, retx);
    }
  }
  for (std::size_t i = 0; i < owners_.size(); ++i) {
    UeContext* ctx = owners_[i];
    const int tb = served_[i];
    if (dir == Direction::kDownlink) {
      if (tb > 0) {
        ctx->dl_buffer = std::max(0, ctx->dl_buffer - tb);
        ctx->last_activity = now;
        ctx->next_harq = static_cast<std::uint8_t>((ctx->next_harq + 1) & 0x07);
      }
      ctx->avg_rate_dl = (1.0 - kPfAlpha) * ctx->avg_rate_dl + kPfAlpha * tb;
    } else {
      if (tb > 0) {
        ctx->ul_buffer = std::max(0, ctx->ul_buffer - tb);
        ctx->last_activity = now;
      }
      ctx->avg_rate_ul = (1.0 - kPfAlpha) * ctx->avg_rate_ul + kPfAlpha * tb;
    }
  }
}

}  // namespace ltefp::lte
