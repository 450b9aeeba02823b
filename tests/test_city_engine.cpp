// Tests for the city-scale event engine: timer-wheel mechanics, bit-identity
// between the wheel engine and the seed-era dense loop (step_reference()) at
// several thread counts, the population/mobility layer, and the interactions
// the attack pipeline depends on (paging retries, idle cutoff).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "apps/factory.hpp"
#include "apps/population.hpp"
#include "attacks/collect.hpp"
#include "common/parallel.hpp"
#include "lte/crc.hpp"
#include "lte/mobility.hpp"
#include "lte/network.hpp"
#include "lte/operator_profile.hpp"
#include "lte/timer_wheel.hpp"

namespace ltefp::lte {
namespace {

OperatorProfile lab() { return operator_profile(Operator::kLab); }

// ---------------------------------------------------------------------------
// Fixtures.

/// Emits one packet of `bytes` every `period` ms. No next_event_after
/// override: polled densely by both engines (the seed-era contract).
class TickerSource final : public TrafficSource {
 public:
  TickerSource(Direction dir, int bytes, TimeMs period, TimeMs start_after = 0)
      : dir_(dir), bytes_(bytes), period_(period), start_after_(start_after) {}

  void step(TimeMs now, std::vector<AppPacket>& out) override {
    if (first_ < 0) first_ = now;
    const TimeMs rel = now - first_;
    if (rel >= start_after_ && (rel - start_after_) % period_ == 0) {
      out.push_back(AppPacket{dir_, bytes_});
    }
  }
  const char* name() const override { return "ticker"; }

 private:
  Direction dir_;
  int bytes_;
  TimeMs period_;
  TimeMs start_after_;
  TimeMs first_ = -1;
};

/// Same emission schedule as TickerSource, but declares its next event so
/// the wheel engine can skip the silent subframes.
class SparseTickerSource final : public TrafficSource {
 public:
  SparseTickerSource(Direction dir, int bytes, TimeMs period)
      : dir_(dir), bytes_(bytes), period_(period) {}

  void step(TimeMs now, std::vector<AppPacket>& out) override {
    if (first_ < 0) first_ = now;
    if ((now - first_) % period_ == 0) out.push_back(AppPacket{dir_, bytes_});
  }
  TimeMs next_event_after(TimeMs now) const override {
    if (first_ < 0) return now + 1;
    const TimeMs since = now - first_;
    return first_ + (since / period_ + 1) * period_;
  }
  const char* name() const override { return "sparse-ticker"; }

 private:
  Direction dir_;
  int bytes_;
  TimeMs period_;
  TimeMs first_ = -1;
};

/// Serializes every observable callback into one byte stream. Two engine
/// runs are bit-identical iff their streams compare equal — this covers
/// event kinds, ordering across cells within a subframe, all plain-text
/// identity fields, and every encoded DCI payload byte and masked CRC.
class ByteStreamObserver final : public PdcchObserver {
 public:
  void on_subframe(const PdcchSubframe& sf) override {
    tag(0);
    u64(static_cast<std::uint64_t>(sf.time));
    u64(sf.cell);
    u64(sf.dcis.size());
    for (const EncodedDci& dci : sf.dcis) {
      u64(dci.payload.size());
      bytes.insert(bytes.end(), dci.payload.begin(), dci.payload.end());
      u64(dci.masked_crc);
    }
  }
  void on_rach(const RachPreamble& m) override {
    tag(1);
    u64(static_cast<std::uint64_t>(m.time));
    u64(m.cell);
    u64(m.preamble_index);
  }
  void on_rar(const RandomAccessResponse& m) override {
    tag(2);
    u64(static_cast<std::uint64_t>(m.time));
    u64(m.cell);
    u64(m.preamble_index);
    u64(m.assigned_rnti);
  }
  void on_rrc_request(const RrcConnectionRequest& m) override {
    tag(3);
    u64(static_cast<std::uint64_t>(m.time));
    u64(m.cell);
    u64(m.rnti);
    u64(m.s_tmsi);
  }
  void on_rrc_setup(const RrcConnectionSetup& m) override {
    tag(4);
    u64(static_cast<std::uint64_t>(m.time));
    u64(m.cell);
    u64(m.rnti);
    u64(m.contention_resolution_identity);
  }
  void on_rrc_release(const RrcConnectionRelease& m) override {
    tag(5);
    u64(static_cast<std::uint64_t>(m.time));
    u64(m.cell);
    u64(m.rnti);
  }

  std::vector<std::uint8_t> bytes;

 private:
  void tag(std::uint8_t t) { bytes.push_back(t); }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
};

/// Observer counting connection-lifecycle edges for one victim cell.
class LifecycleObserver final : public PdcchObserver {
 public:
  void on_subframe(const PdcchSubframe& sf) override {
    ++subframes;
    dci_count += sf.dcis.size();
    for (const EncodedDci& dci : sf.dcis) {
      if (recover_rnti(dci.payload, dci.masked_crc) == kPagingRnti) ++pages;
    }
    last_time = sf.time;
  }
  void on_rach(const RachPreamble&) override { ++rach; }
  void on_rar(const RandomAccessResponse&) override { ++rar; }
  void on_rrc_request(const RrcConnectionRequest&) override { ++requests; }
  void on_rrc_setup(const RrcConnectionSetup&) override { ++setups; }
  void on_rrc_release(const RrcConnectionRelease&) override { ++releases; }

  std::size_t subframes = 0, dci_count = 0, pages = 0;
  int rach = 0, rar = 0, requests = 0, setups = 0, releases = 0;
  TimeMs last_time = -1;
};

/// A scripted scenario: a builder that populates a fresh simulation and
/// returns the cells to observe, plus timed actions applied between
/// subframes (moves, source swaps, late arrivals) and a run length.
struct Scenario {
  std::function<std::vector<CellId>(Simulation&)> build;
  std::vector<std::pair<TimeMs, std::function<void(Simulation&)>>> actions;  // time-sorted
  TimeMs duration = 0;
  std::uint64_t seed = 42;
};

/// Runs `sc` through one engine at `threads` worker threads and returns the
/// full serialized observer stream (a single observer across all cells, so
/// cross-cell dispatch order is part of the comparison).
std::vector<std::uint8_t> run_capture(const Scenario& sc, bool reference, std::size_t threads) {
  const int prev = thread_count();
  set_thread_count(static_cast<int>(threads));
  Simulation sim(sc.seed);
  const std::vector<CellId> cells = sc.build(sim);
  ByteStreamObserver obs;
  for (CellId cell : cells) sim.add_observer(cell, obs);
  std::size_t next_action = 0;
  for (TimeMs t = 0; t < sc.duration; ++t) {
    while (next_action < sc.actions.size() && sc.actions[next_action].first <= t) {
      sc.actions[next_action++].second(sim);
    }
    if (reference) {
      sim.step_reference();
    } else {
      sim.step();
    }
  }
  set_thread_count(prev);
  return std::move(obs.bytes);
}

/// Asserts the wheel engine reproduces the reference stream byte for byte
/// at 1, 2 and 8 threads.
void expect_engine_identity(const Scenario& sc) {
  const std::vector<std::uint8_t> ref = run_capture(sc, /*reference=*/true, 1);
  ASSERT_FALSE(ref.empty());
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const std::vector<std::uint8_t> got = run_capture(sc, /*reference=*/false, threads);
    EXPECT_EQ(ref.size(), got.size()) << "threads=" << threads;
    EXPECT_TRUE(ref == got) << "stream diverged at threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Timer wheel mechanics.

TEST(TimerWheel, DrainCollectsDueSortedAndDedupes) {
  TimerWheel wheel;
  std::vector<TimeMs> wake_at(4, kNeverMs);
  wake_at[0] = 5;  // ue 1
  wake_at[2] = 5;  // ue 3
  wheel.insert(5, 3);
  wheel.insert(5, 1);
  wheel.insert(5, 1);  // duplicate: must dispatch once
  EXPECT_EQ(wheel.size(), 3u);

  std::vector<UeId> due;
  wheel.drain(5, wake_at, due);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0], 1u);  // sorted by UeId
  EXPECT_EQ(due[1], 3u);
  EXPECT_EQ(wake_at[0], kNeverMs);  // consumed
  EXPECT_EQ(wake_at[2], kNeverMs);
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimerWheel, SupersededEntriesDropLazily) {
  TimerWheel wheel;
  std::vector<TimeMs> wake_at(1, kNeverMs);
  wheel.insert(10, 1);
  wake_at[0] = 7;  // rescheduled earlier: the at=10 entry is now stale
  wheel.insert(7, 1);

  std::vector<UeId> due;
  wheel.drain(7, wake_at, due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], 1u);

  wheel.drain(10, wake_at, due);  // stale entry must not re-fire
  EXPECT_TRUE(due.empty());
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimerWheel, FutureLapEntriesSurviveRevisits) {
  TimerWheel wheel(/*bucket_bits=*/2);  // 4 buckets: at=6 hashes with now=2
  EXPECT_EQ(wheel.bucket_count(), 4u);
  std::vector<TimeMs> wake_at(1, 6);
  wheel.insert(6, 1);

  std::vector<UeId> due;
  wheel.drain(2, wake_at, due);  // same bucket, one lap early
  EXPECT_TRUE(due.empty());
  EXPECT_EQ(wheel.size(), 1u);  // kept for the next lap

  wheel.drain(6, wake_at, due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], 1u);
}

// ---------------------------------------------------------------------------
// Engine bit-identity against step_reference().

TEST(CityEngine, SmallScenarioBitIdentityAcrossThreadCounts) {
  // The test_network-style small scenario: a few cells, dense tickers,
  // mid-run handover, idle reselection, a source swap and a late attach.
  Scenario sc;
  sc.duration = 1200;
  sc.build = [](Simulation& sim) {
    std::vector<CellId> cells;
    cells.push_back(sim.add_cell(lab()));
    cells.push_back(sim.add_cell(lab()));
    cells.push_back(sim.add_cell(lab(), CountermeasureConfig{}, /*conceal_identity=*/true));
    for (int i = 0; i < 6; ++i) {
      const UeId ue = sim.add_ue(7000 + static_cast<Imsi>(i));
      sim.camp(ue, cells[static_cast<std::size_t>(i) % cells.size()]);
      if (i % 3 == 0) {
        sim.set_traffic_source(ue, std::make_unique<TickerSource>(Direction::kUplink, 400, 37, 5));
      } else if (i % 3 == 1) {
        sim.set_traffic_source(ue,
                               std::make_unique<TickerSource>(Direction::kDownlink, 900, 53, 11));
      }  // every third UE stays silent
    }
    return cells;
  };
  sc.actions.emplace_back(150, [](Simulation& sim) { sim.move(1, 1); });  // connected handover
  sc.actions.emplace_back(300, [](Simulation& sim) { sim.move(3, 2); });
  sc.actions.emplace_back(450, [](Simulation& sim) {
    sim.set_traffic_source(2, std::make_unique<TickerSource>(Direction::kUplink, 120, 17));
  });
  sc.actions.emplace_back(600, [](Simulation& sim) {
    const UeId late = sim.add_ue(7777);
    sim.camp(late, 0);
    sim.set_traffic_source(late, std::make_unique<TickerSource>(Direction::kDownlink, 600, 41));
  });
  sc.actions.emplace_back(800, [](Simulation& sim) { sim.connect(6); });  // silent UE, manual RRC
  expect_engine_identity(sc);
}

TEST(CityEngine, ShardedPhaseBitIdentityUnderDenseLoad) {
  // Enough simultaneously-due UEs to clear kMinDueForSharding every
  // subframe, so the parallel shard path (not the serial fast path) is
  // what gets compared against the reference loop.
  Scenario sc;
  sc.duration = 400;
  sc.build = [](Simulation& sim) {
    std::vector<CellId> cells;
    for (int c = 0; c < 4; ++c) cells.push_back(sim.add_cell(lab()));
    sim.reserve_ues(80);
    for (int i = 0; i < 80; ++i) {
      const UeId ue = sim.add_ue(50'000 + static_cast<Imsi>(i));
      sim.camp(ue, cells[static_cast<std::size_t>(i) % cells.size()]);
      const Direction dir = (i % 2 == 0) ? Direction::kUplink : Direction::kDownlink;
      sim.set_traffic_source(
          ue, std::make_unique<TickerSource>(dir, 200 + i, 20 + i % 7, i % 13));
    }
    return cells;
  };
  sc.actions.emplace_back(120, [](Simulation& sim) { sim.move(10, 2); });
  sc.actions.emplace_back(121, [](Simulation& sim) { sim.move(11, 3); });
  sc.actions.emplace_back(250, [](Simulation& sim) { sim.move(10, 0); });
  expect_engine_identity(sc);
}

TEST(CityEngine, RealAppSourcesBitIdentity) {
  // Every fingerprinted app model, driven by its own next_event_after
  // schedule in the wheel engine, must reproduce the densely-polled
  // reference stream exactly — this is the per-source no-op contract.
  for (apps::AppId app : apps::kAllApps) {
    Scenario sc;
    sc.duration = 4000;
    sc.seed = 42 + static_cast<std::uint64_t>(app);
    sc.build = [app](Simulation& sim) {
      std::vector<CellId> cells{sim.add_cell(lab())};
      for (int i = 0; i < 3; ++i) {
        const UeId ue = sim.add_ue(8000 + static_cast<Imsi>(i));
        sim.camp(ue, cells[0]);
        sim.set_traffic_source(
            ue, apps::make_app_source(app, 4000,
                                      Rng(derive_seed({99, static_cast<std::uint64_t>(app),
                                                       static_cast<std::uint64_t>(i)}))));
      }
      return cells;
    };
    SCOPED_TRACE(apps::to_string(app));
    expect_engine_identity(sc);
  }
}

TEST(CityEngine, DiurnalSourceBitIdentityAndSparsity) {
  Scenario sc;
  sc.duration = 60'000;
  sc.build = [](Simulation& sim) {
    std::vector<CellId> cells{sim.add_cell(lab())};
    for (int i = 0; i < 4; ++i) {
      const UeId ue = sim.add_ue(9100 + static_cast<Imsi>(i));
      sim.camp(ue, cells[0]);
      apps::DiurnalSource::Params params;
      params.base_gap_ms = 8'000;
      params.session_mean_ms = 2'000;
      sim.set_traffic_source(ue, std::make_unique<apps::DiurnalSource>(
                                     params, Rng(derive_seed({17, static_cast<std::uint64_t>(i)}))));
    }
    return cells;
  };
  expect_engine_identity(sc);
}

TEST(CityEngine, SparseSourceSkipsSilentSubframes) {
  Simulation sim(3);
  const CellId cell = sim.add_cell(lab());
  const UeId ue = sim.add_ue(31337);
  sim.camp(ue, cell);
  sim.set_traffic_source(ue,
                         std::make_unique<SparseTickerSource>(Direction::kUplink, 300, 500));
  sim.run_for(10'000);
  // Dense polling would be 10'000 UE events. The wheel should only wake the
  // UE for its 20 packets plus the connection-lifecycle follow-ups (RRC
  // timeline, post-release triggers, idle re-pages) — orders of magnitude
  // fewer than the subframe count.
  EXPECT_GE(sim.ue_events(), 20u);
  EXPECT_LT(sim.ue_events(), 2'000u);
  EXPECT_TRUE(sim.is_connected(ue));
}

TEST(CityEngine, QuiescentCellStillFeedsObservers) {
  // A cell with no UEs must not advance differently for its sniffer: the
  // engine skips stepping it but still delivers one (empty) subframe per ms.
  Simulation sim(5);
  const CellId busy = sim.add_cell(lab());
  const CellId idle = sim.add_cell(lab());
  LifecycleObserver idle_obs;
  sim.add_observer(idle, idle_obs);
  const UeId ue = sim.add_ue(4242);
  sim.camp(ue, busy);
  sim.set_traffic_source(ue, std::make_unique<TickerSource>(Direction::kUplink, 200, 50));
  sim.run_for(200);
  EXPECT_EQ(idle_obs.subframes, 200u);
  EXPECT_EQ(idle_obs.dci_count, 0u);
  EXPECT_EQ(idle_obs.last_time, 199);
  EXPECT_EQ(idle_obs.rach + idle_obs.rar + idle_obs.requests, 0);
}

/// FNV-1a 64 over a captured observer stream.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// A 3-cell scenario that drives every eNB feature into the observer
/// stream: dummy grants, C-RNTI re-key, TB padding, SUCI concealment, HARQ
/// retransmissions, a connected handover, paging of idle UEs, and UEs that
/// hit the inactivity timer and are re-activated later. For the first
/// 1.5 s a crowd of densely polled UEs keeps >= kMinDueForSharding UEs due
/// every subframe (the sharded region); after that only the sparse victims
/// are due (the inline path).
Scenario every_enb_feature() {
  Scenario sc;
  sc.duration = 3'000;
  sc.seed = 2401;
  sc.build = [](Simulation& sim) {
    OperatorProfile busy = operator_profile(Operator::kTmobile);  // PF, BLER 0.10
    busy.inactivity_timeout = 400;
    OperatorProfile quiet = lab();  // round-robin
    quiet.inactivity_timeout = 300;
    quiet.channel_volatility_db = 1.5;
    quiet.harq_bler = 0.05;
    CountermeasureConfig all;
    all.rnti_rekey_period = 170;
    all.pad_to_bytes = 512;
    all.dummy_grant_rate = 0.03;
    CountermeasureConfig chaff;
    chaff.dummy_grant_rate = 0.01;
    std::vector<CellId> cells;
    cells.push_back(sim.add_cell(busy, all, /*conceal_identity=*/true));
    cells.push_back(sim.add_cell(quiet));
    cells.push_back(sim.add_cell(busy, chaff, /*conceal_identity=*/false));
    // Sparse victims (UEs 1..9): periods longer than the inactivity
    // timeouts, so each arrival after the first finds the UE idle; downlink
    // ones are paged, uplink ones RACH on their own.
    for (int i = 0; i < 9; ++i) {
      const UeId ue = sim.add_ue(24'000 + static_cast<Imsi>(i));
      sim.camp(ue, cells[static_cast<std::size_t>(i) % cells.size()]);
      const Direction dir = i % 2 == 0 ? Direction::kDownlink : Direction::kUplink;
      sim.set_traffic_source(ue, std::make_unique<SparseTickerSource>(dir, 700 + 90 * i,
                                                                      560 + 45 * i));
    }
    // Dense crowd (UEs 10..81).
    for (int i = 0; i < 72; ++i) {
      const UeId ue = sim.add_ue(24'100 + static_cast<Imsi>(i));
      sim.camp(ue, cells[static_cast<std::size_t>(i) % cells.size()]);
      const Direction dir = i % 3 == 0 ? Direction::kUplink : Direction::kDownlink;
      sim.set_traffic_source(
          ue, std::make_unique<TickerSource>(dir, 300 + 7 * i, 25 + i % 11, i % 17));
    }
    return cells;
  };
  // Connected handover of a crowd UE, then a silent UE connected by hand
  // that idles out on the inactivity timer.
  sc.actions.emplace_back(260, [](Simulation& sim) { sim.move(10, 1); });
  sc.actions.emplace_back(900, [](Simulation& sim) {
    const UeId silent = sim.add_ue(24'999);
    sim.camp(silent, 2);
    sim.connect(silent);
  });
  sc.actions.emplace_back(1'500, [](Simulation& sim) {
    for (UeId ue = 10; ue < 82; ++ue) sim.set_traffic_source(ue, nullptr);
  });
  return sc;
}

TEST(CityEngine, EnbObserverStreamIsPinned) {
  // The wheel-vs-reference tests cannot see a change inside Enb::step (both
  // engines call it), so the eNB's full observable output is pinned to a
  // committed digest. A change here is a change in simulation results.
  constexpr std::uint64_t kPinnedDigest = 0xfbb954ac9b8177d4ULL;
  const Scenario sc = every_enb_feature();
  const std::vector<std::uint8_t> ref = run_capture(sc, /*reference=*/true, 1);
  EXPECT_EQ(fnv1a(ref), kPinnedDigest) << std::hex << "reference digest 0x" << fnv1a(ref);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const std::uint64_t got = fnv1a(run_capture(sc, /*reference=*/false, threads));
    EXPECT_EQ(got, kPinnedDigest) << std::hex << "threads=" << threads << " digest 0x" << got;
  }

  // The scenario reaches what it claims to pin.
  Simulation sim(sc.seed);
  LifecycleObserver life;
  for (const CellId cell : sc.build(sim)) sim.add_observer(cell, life);
  std::size_t next_action = 0;
  for (TimeMs t = 0; t < sc.duration; ++t) {
    while (next_action < sc.actions.size() && sc.actions[next_action].first <= t) {
      sc.actions[next_action++].second(sim);
    }
    sim.step();
  }
  EXPECT_GT(life.pages, 3u);
  EXPECT_GT(life.releases, 9);                // inactivity releases
  EXPECT_GT(life.requests, 82 + 9);           // victims re-activated after release
  EXPECT_EQ(life.rach, life.requests + 1);    // one contention-free handover RACH
}

// ---------------------------------------------------------------------------
// Mobility layer.

TEST(Mobility, CommuteScheduleDeterministicAndOrdered) {
  std::vector<Commuter> commuters;
  for (UeId ue = 1; ue <= 12; ++ue) {
    commuters.push_back(Commuter{ue, static_cast<CellId>((ue - 1) % 3),
                                 static_cast<CellId>((ue + 1) % 3), static_cast<CellId>(ue % 3)});
  }
  CommuteParams params;
  const auto schedule = build_commute_schedule(commuters, params, 77);
  const auto again = build_commute_schedule(commuters, params, 77);
  ASSERT_EQ(schedule.size(), again.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_EQ(schedule[i].at, again[i].at);
    EXPECT_EQ(schedule[i].ue, again[i].ue);
    EXPECT_EQ(schedule[i].target, again[i].target);
  }
  // Sorted by (at, ue) and all departures within the jitter window.
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    EXPECT_TRUE(schedule[i - 1].at < schedule[i].at ||
                (schedule[i - 1].at == schedule[i].at && schedule[i - 1].ue <= schedule[i].ue));
  }
  // Corridor hop doubles each leg: 2 legs/day x 2 hops x 12 commuters.
  EXPECT_EQ(schedule.size(), 48u);
  for (const MoveEvent& ev : schedule) {
    const bool morning = ev.at < 12 * kMsPerHour;
    const TimeMs mean = morning ? params.morning_mean : params.evening_mean;
    EXPECT_GE(ev.at, mean - params.departure_jitter);
    EXPECT_LE(ev.at, mean + params.departure_jitter + params.corridor_dwell);
  }
  // A different seed must shuffle the departure times.
  const auto other = build_commute_schedule(commuters, params, 78);
  bool any_diff = false;
  for (std::size_t i = 0; i < schedule.size(); ++i) any_diff |= other[i].at != schedule[i].at;
  EXPECT_TRUE(any_diff);
}

TEST(Mobility, CommuteHandoverSequenceAcrossThreeCells) {
  Simulation sim(11);
  const CellId home = sim.add_cell(lab());
  const CellId corridor = sim.add_cell(lab());
  const CellId work = sim.add_cell(lab());
  LifecycleObserver work_obs;
  sim.add_observer(work, work_obs);

  const UeId ue = sim.add_ue(60'001);
  sim.camp(ue, home);
  // Dense uplink keeps the UE connected, so every move is an X2 handover.
  sim.set_traffic_source(ue, std::make_unique<TickerSource>(Direction::kUplink, 300, 25));

  CommuteParams params;
  params.morning_mean = 600;
  params.evening_mean = 2'400;
  params.departure_jitter = 100;
  params.corridor_dwell = 300;
  const auto schedule = build_commute_schedule({Commuter{ue, home, work, corridor}}, params, 5);
  ASSERT_EQ(schedule.size(), 4u);

  std::vector<CellId> observed{sim.camped_cell(ue)};
  std::size_t cursor = 0;
  for (TimeMs t = 0; t < 3'500; ++t) {
    drain_moves(schedule, cursor, t, [&](UeId u, CellId target) {
      if (sim.camped_cell(u) != target) sim.move(u, target);
    });
    sim.step();
    if (sim.camped_cell(ue) != observed.back()) observed.push_back(sim.camped_cell(ue));
  }
  const std::vector<CellId> expected{home, corridor, work, corridor, home};
  EXPECT_EQ(observed, expected);
  EXPECT_TRUE(sim.is_connected(ue));
  // The work cell saw the contention-free handover arrival (RACH + RAR).
  EXPECT_GE(work_obs.rach, 1);
  EXPECT_GE(work_obs.rar, 1);
}

TEST(Mobility, PagingRetryCyclesUnderLoad) {
  // A downlink-only victim on a loaded cell: every arrival while idle must
  // page it back (RACH + new RNTI), even with dozens of dense UEs
  // competing for the scheduler every subframe.
  Scenario sc;
  sc.duration = 40'000;
  sc.build = [](Simulation& sim) {
    std::vector<CellId> cells{sim.add_cell(lab())};
    const UeId victim = sim.add_ue(70'000);
    sim.camp(victim, cells[0]);
    // Period > inactivity_timeout (10 s for kLab): the UE is released and
    // re-paged on every arrival.
    sim.set_traffic_source(victim,
                           std::make_unique<TickerSource>(Direction::kDownlink, 800, 15'000));
    for (int i = 0; i < 24; ++i) {
      const UeId ue = sim.add_ue(70'100 + static_cast<Imsi>(i));
      sim.camp(ue, cells[0]);
      sim.set_traffic_source(
          ue, std::make_unique<TickerSource>(Direction::kUplink, 150 + i, 9 + i % 5, i));
    }
    return cells;
  };
  expect_engine_identity(sc);

  // Ground-truth paging cycle count for the victim on the wheel engine.
  Simulation sim(sc.seed);
  sc.build(sim);
  const UeId victim = 1;
  int connect_edges = 0;
  bool was_connected = false;
  for (TimeMs t = 0; t < sc.duration; ++t) {
    sim.step();
    const bool connected = sim.is_connected(victim);
    if (connected && !was_connected) ++connect_edges;
    was_connected = connected;
  }
  EXPECT_GE(connect_edges, 3);  // arrivals at 0, 15 s and 30 s all paged
}

TEST(Mobility, IdleCutoffSeparatesSessions) {
  // Gaps longer than the attack pipeline's session cutoff must appear as
  // disjoint connection cycles: the eNB releases the RNTI long before the
  // cutoff elapses, and the next paging cycle starts a fresh session.
  const TimeMs period = attacks::kSessionIdleCutoffMs + 10'000;
  Simulation sim(13);
  const CellId cell = sim.add_cell(lab());
  LifecycleObserver obs;
  sim.add_observer(cell, obs);
  const UeId ue = sim.add_ue(80'001);
  sim.camp(ue, cell);
  sim.set_traffic_source(ue,
                         std::make_unique<TickerSource>(Direction::kDownlink, 700, period));

  std::vector<TimeMs> connect_times;
  bool was_connected = false;
  for (TimeMs t = 0; t < 2 * period + 5'000; ++t) {
    sim.step();
    const bool connected = sim.is_connected(ue);
    if (connected && !was_connected) connect_times.push_back(sim.now());
    was_connected = connected;
  }
  ASSERT_GE(connect_times.size(), 2u);
  ASSERT_GE(obs.releases, 1);
  // Each cycle is separated by more than the cutoff, so collect-side
  // segmentation (src/attacks/collect.hpp) files them as separate sessions.
  for (std::size_t i = 1; i < connect_times.size(); ++i) {
    EXPECT_GT(connect_times[i] - connect_times[i - 1], attacks::kSessionIdleCutoffMs);
  }
  // And the release happened well before the cutoff would have split it.
  EXPECT_LT(sim.cell_profile(cell).inactivity_timeout, attacks::kSessionIdleCutoffMs);
}

TEST(Mobility, CityScenarioDeterministicAcrossThreadCounts) {
  apps::CityOptions options;
  options.seed = 2024;
  options.cells = 3;
  options.ues_per_cell = 5;
  options.activity.base_gap_ms = 6'000;
  options.activity.session_mean_ms = 1'500;
  options.commute.morning_mean = 1'000;
  options.commute.evening_mean = 2'500;
  options.commute.departure_jitter = 200;
  options.commute.corridor_dwell = 150;

  auto run = [&](std::size_t threads) {
    const int prev = thread_count();
    set_thread_count(static_cast<int>(threads));
    apps::CityScenario scenario(options);
    ByteStreamObserver obs;
    for (std::size_t cell = 0; cell < options.cells; ++cell) {
      scenario.sim().add_observer(static_cast<CellId>(cell), obs);
    }
    scenario.run_for(4'000);
    set_thread_count(prev);
    return std::move(obs.bytes);
  };

  const auto one = run(1);
  ASSERT_FALSE(one.empty());
  const auto two = run(2);
  const auto eight = run(8);
  EXPECT_TRUE(one == two);
  EXPECT_TRUE(one == eight);
}

}  // namespace
}  // namespace ltefp::lte
