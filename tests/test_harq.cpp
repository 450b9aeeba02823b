#include <gtest/gtest.h>

#include "lte/crc.hpp"
#include "lte/enb.hpp"
#include "lte/operator_profile.hpp"

namespace ltefp::lte {
namespace {

/// One subframe into a fresh result.
EnbStepResult step(Enb& enb, TimeMs now) {
  EnbStepResult result;
  enb.step(now, result);
  return result;
}

struct HarqCounts {
  int first_tx = 0;  // NDI = true
  int retx = 0;      // NDI = false
};

HarqCounts run_with_bler(double bler) {
  EnbConfig config;
  config.cell = 0;
  config.profile = operator_profile(Operator::kLab);
  config.profile.harq_bler = bler;
  Enb enb(config, Rng(5));

  TimeMs now = 0;
  enb.start_connection(1, 0xAA, now);
  for (int i = 0; i < 20; ++i) step(enb, now++);
  EXPECT_TRUE(enb.is_connected(1));
  const Rnti rnti = *enb.rnti_of(1);

  HarqCounts counts;
  for (int burst = 0; burst < 50; ++burst) {
    enb.push_traffic(1, Direction::kDownlink, 2000, now);
    for (int i = 0; i < 40; ++i) {
      const auto result = step(enb, now++);
      for (const auto& enc : result.pdcch.dcis) {
        if (recover_rnti(enc.payload, enc.masked_crc) != rnti) continue;
        const auto dci = decode_dci_fields(enc);
        EXPECT_TRUE(dci.has_value());
        if (!dci) continue;
        if (dci->ndi) {
          ++counts.first_tx;
        } else {
          ++counts.retx;
        }
      }
    }
  }
  return counts;
}

TEST(Harq, NoRetransmissionsAtZeroBler) {
  const HarqCounts counts = run_with_bler(0.0);
  EXPECT_GT(counts.first_tx, 40);
  EXPECT_EQ(counts.retx, 0);
}

TEST(Harq, RetransmissionRateTracksBler) {
  const HarqCounts counts = run_with_bler(0.3);
  ASSERT_GT(counts.first_tx, 40);
  const double ratio = static_cast<double>(counts.retx) / counts.first_tx;
  EXPECT_NEAR(ratio, 0.3, 0.12);
}

TEST(Harq, RetransmissionRepeatsGrantParameters) {
  EnbConfig config;
  config.cell = 0;
  config.profile = operator_profile(Operator::kLab);
  config.profile.harq_bler = 1.0;  // every TB fails once
  Enb enb(config, Rng(6));
  TimeMs now = 0;
  enb.start_connection(1, 0xAA, now);
  for (int i = 0; i < 20; ++i) step(enb, now++);
  const Rnti rnti = *enb.rnti_of(1);

  enb.push_traffic(1, Direction::kUplink, 700, now);
  Dci first{}, retx{};
  bool saw_first = false, saw_retx = false;
  for (int i = 0; i < 30 && !saw_retx; ++i) {
    const auto result = step(enb, now++);
    for (const auto& enc : result.pdcch.dcis) {
      if (recover_rnti(enc.payload, enc.masked_crc) != rnti) continue;
      const auto dci = decode_dci_fields(enc);
      ASSERT_TRUE(dci.has_value());
      if (dci->ndi && !saw_first) {
        first = *dci;
        saw_first = true;
      } else if (!dci->ndi && saw_first && !saw_retx) {
        retx = *dci;
        saw_retx = true;
      }
    }
  }
  ASSERT_TRUE(saw_first);
  ASSERT_TRUE(saw_retx);
  EXPECT_EQ(retx.mcs, first.mcs);
  EXPECT_EQ(retx.nprb, first.nprb);
  EXPECT_EQ(retx.direction, first.direction);
}

TEST(Harq, CommercialProfilesHaveNonzeroBler) {
  for (const Operator op : {Operator::kVerizon, Operator::kAtt, Operator::kTmobile}) {
    EXPECT_GT(operator_profile(op).harq_bler, 0.05) << to_string(op);
  }
  EXPECT_LT(operator_profile(Operator::kLab).harq_bler, 0.02);
}

}  // namespace
}  // namespace ltefp::lte
