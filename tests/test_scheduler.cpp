#include "lte/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "lte/tbs.hpp"

namespace ltefp::lte {
namespace {

std::vector<SchedCandidate> make_candidates(int n, int buffer, int mcs) {
  std::vector<SchedCandidate> out;
  for (int i = 0; i < n; ++i) {
    SchedCandidate c;
    c.rnti = static_cast<Rnti>(0x100 + i);
    c.buffer_bytes = buffer;
    c.mcs = mcs;
    c.avg_rate = 1.0;
    out.push_back(c);
  }
  return out;
}

/// One schedule() call into a fresh output vector.
std::vector<SchedDecision> run(Scheduler& scheduler, std::span<const SchedCandidate> candidates,
                               int total_prb, int max_prb_per_ue) {
  std::vector<SchedDecision> out;
  scheduler.schedule(candidates, total_prb, max_prb_per_ue, out);
  return out;
}

int total_prbs(const std::vector<SchedDecision>& decisions) {
  return std::accumulate(decisions.begin(), decisions.end(), 0,
                         [](int sum, const SchedDecision& d) { return sum + d.nprb; });
}

class BothSchedulers : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(BothSchedulers, EmptyCandidatesYieldNothing) {
  auto scheduler = make_scheduler(GetParam());
  EXPECT_TRUE(run(*scheduler, {}, 50, 50).empty());
}

TEST_P(BothSchedulers, NeverExceedsPrbBudget) {
  auto scheduler = make_scheduler(GetParam());
  const auto candidates = make_candidates(20, 5000, 10);
  for (int budget : {6, 25, 50, 100}) {
    const auto decisions = run(*scheduler, candidates, budget, 100);
    EXPECT_LE(total_prbs(decisions), budget) << "budget=" << budget;
  }
}

TEST_P(BothSchedulers, RespectsPerUeCap) {
  auto scheduler = make_scheduler(GetParam());
  const auto candidates = make_candidates(2, 1'000'000, 20);
  const auto decisions = run(*scheduler, candidates, 100, 12);
  ASSERT_FALSE(decisions.empty());
  for (const auto& d : decisions) {
    EXPECT_LE(d.nprb, 12);
  }
}

TEST_P(BothSchedulers, GrantCoversBufferWhenRoomAvailable) {
  auto scheduler = make_scheduler(GetParam());
  const auto candidates = make_candidates(1, 500, 15);
  const auto decisions = run(*scheduler, candidates, 100, 100);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_GE(decisions[0].tb_bytes, 500);
  // Minimal: one PRB fewer would not fit.
  EXPECT_LT(max_tb_bytes(15, decisions[0].nprb - 1), 500);
}

TEST_P(BothSchedulers, TbBytesMatchesGrant) {
  auto scheduler = make_scheduler(GetParam());
  const auto candidates = make_candidates(5, 3000, 12);
  for (const auto& d : run(*scheduler, candidates, 50, 50)) {
    EXPECT_EQ(d.tb_bytes, max_tb_bytes(d.mcs, d.nprb));
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, BothSchedulers,
                         ::testing::Values(SchedulerKind::kRoundRobin,
                                           SchedulerKind::kProportionalFair));

TEST(RoundRobin, RotatesStartingCandidate) {
  RoundRobinScheduler scheduler;
  // Budget fits only one full grant per subframe.
  auto candidates = make_candidates(3, 4000, 5);
  std::vector<Rnti> first_served;
  for (int tti = 0; tti < 3; ++tti) {
    const auto decisions = run(scheduler, candidates, 30, 30);
    ASSERT_FALSE(decisions.empty());
    first_served.push_back(decisions.front().rnti);
  }
  // Three subframes serve three different heads.
  EXPECT_NE(first_served[0], first_served[1]);
  EXPECT_NE(first_served[1], first_served[2]);
}

TEST(ProportionalFair, PrefersStarvedUe) {
  ProportionalFairScheduler scheduler;
  auto candidates = make_candidates(2, 5000, 10);
  candidates[0].avg_rate = 100.0;  // well served
  candidates[1].avg_rate = 1.0;    // starved
  const auto decisions = run(scheduler, candidates, 10, 10);
  ASSERT_FALSE(decisions.empty());
  EXPECT_EQ(decisions.front().rnti, candidates[1].rnti);
}

TEST(ProportionalFair, PrefersBetterChannelAtEqualService) {
  ProportionalFairScheduler scheduler;
  auto candidates = make_candidates(2, 5000, 5);
  candidates[1].mcs = 25;  // much better channel
  const auto decisions = run(scheduler, candidates, 10, 10);
  ASSERT_FALSE(decisions.empty());
  EXPECT_EQ(decisions.front().rnti, candidates[1].rnti);
}

TEST(ProportionalFair, EqualMetricsServeInAscendingCandidateOrder) {
  // Three metric groups interleaved over more candidates than an insertion
  // sort handles, so an unstable sort would reorder ties. The reference
  // order is a stable sort on the metric alone, which keeps ties in
  // candidate order.
  ProportionalFairScheduler scheduler;
  auto candidates = make_candidates(48, 20, 10);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    candidates[i].avg_rate = i % 3 == 0 ? 1.0 : (i % 3 == 1 ? 50.0 : 7.0);
  }
  std::vector<std::size_t> expected(candidates.size());
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  std::stable_sort(expected.begin(), expected.end(), [&](std::size_t a, std::size_t b) {
    return 1.0 / candidates[a].avg_rate > 1.0 / candidates[b].avg_rate;
  });
  ASSERT_EQ(expected[0], 0u);
  ASSERT_EQ(expected[1], 3u);
  ASSERT_EQ(expected[16], 2u);

  const auto decisions = run(scheduler, candidates, 100, 100);
  ASSERT_EQ(decisions.size(), candidates.size());
  for (std::size_t k = 0; k < decisions.size(); ++k) {
    EXPECT_EQ(decisions[k].candidate, expected[k]) << "grant " << k;
    EXPECT_EQ(decisions[k].rnti, candidates[expected[k]].rnti) << "grant " << k;
  }

  // All metrics equal: plain candidate order.
  const auto same = make_candidates(48, 20, 10);
  const auto tied = run(scheduler, same, 100, 100);
  ASSERT_EQ(tied.size(), same.size());
  for (std::size_t k = 0; k < tied.size(); ++k) EXPECT_EQ(tied[k].candidate, k);
}

TEST(Scheduler, ReusedOutputIsClearedAndRefilled) {
  for (const SchedulerKind kind : {SchedulerKind::kRoundRobin, SchedulerKind::kProportionalFair}) {
    // Two schedulers fed the same calls stay in the same state; one writes
    // into a fresh vector per call, the other reuses one buffer.
    auto fresh = make_scheduler(kind);
    auto reused = make_scheduler(kind);
    std::vector<SchedDecision> out(5, SchedDecision{.candidate = 99, .rnti = 0xDEAD, .nprb = 7});
    auto candidates = make_candidates(4, 3000, 12);
    candidates[2].avg_rate = 3.0;
    for (int tti = 0; tti < 3; ++tti) {
      const auto expected = run(*fresh, candidates, 25, 25);
      reused->schedule(candidates, 25, 25, out);
      ASSERT_EQ(out.size(), expected.size()) << reused->name() << " tti " << tti;
      for (std::size_t k = 0; k < out.size(); ++k) {
        EXPECT_EQ(out[k].candidate, expected[k].candidate);
        EXPECT_EQ(out[k].rnti, expected[k].rnti);
        EXPECT_EQ(out[k].rnti, candidates[out[k].candidate].rnti);
        EXPECT_EQ(out[k].nprb, expected[k].nprb);
        EXPECT_EQ(out[k].mcs, expected[k].mcs);
        EXPECT_EQ(out[k].tb_bytes, expected[k].tb_bytes);
      }
    }
    reused->schedule({}, 25, 25, out);
    EXPECT_TRUE(out.empty()) << reused->name();
  }
}

TEST(Scheduler, SkipsEmptyBuffers) {
  RoundRobinScheduler scheduler;
  auto candidates = make_candidates(3, 0, 10);
  candidates[1].buffer_bytes = 100;
  const auto decisions = run(scheduler, candidates, 50, 50);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].rnti, candidates[1].rnti);
}

}  // namespace
}  // namespace ltefp::lte
