#include "lte/enb.hpp"

#include <gtest/gtest.h>

#include "lte/crc.hpp"
#include "lte/operator_profile.hpp"

namespace ltefp::lte {
namespace {

/// One subframe into a fresh result.
EnbStepResult step(Enb& enb, TimeMs now) {
  EnbStepResult result;
  enb.step(now, result);
  return result;
}

Enb make_enb(Operator op = Operator::kLab) {
  EnbConfig config;
  config.cell = 1;
  config.profile = operator_profile(op);
  return Enb(config, Rng(77));
}

/// Steps the eNB until the UE connects; returns the elapsed subframes.
int connect_ue(Enb& enb, UeId ue, Tmsi tmsi, TimeMs& now) {
  enb.start_connection(ue, tmsi, now);
  for (int i = 0; i < 30; ++i) {
    const auto result = step(enb, now++);
    if (!result.established.empty()) return i;
  }
  ADD_FAILURE() << "connection never completed";
  return -1;
}

TEST(Enb, ContentionBasedConnectionSequence) {
  Enb enb = make_enb();
  TimeMs now = 0;
  enb.start_connection(10, 0xAABBCCDD, now);

  bool saw_rach = false, saw_rar = false, saw_request = false, saw_setup = false;
  Rnti assigned = 0;
  for (int i = 0; i < 20 && !saw_setup; ++i) {
    const auto result = step(enb, now++);
    if (!result.rach.empty()) {
      saw_rach = true;
      EXPECT_FALSE(saw_rar) << "Msg1 must precede Msg2";
    }
    if (!result.rars.empty()) {
      saw_rar = true;
      assigned = result.rars[0].assigned_rnti;
      EXPECT_TRUE(saw_rach);
    }
    if (!result.rrc_requests.empty()) {
      saw_request = true;
      EXPECT_TRUE(saw_rar);
      EXPECT_EQ(result.rrc_requests[0].s_tmsi, 0xAABBCCDD);  // plain-text S-TMSI
      EXPECT_EQ(result.rrc_requests[0].rnti, assigned);
    }
    if (!result.rrc_setups.empty()) {
      saw_setup = true;
      EXPECT_TRUE(saw_request);
      // Contention resolution identity echoes the request.
      EXPECT_EQ(result.rrc_setups[0].contention_resolution_identity, 0xAABBCCDD);
      ASSERT_FALSE(result.established.empty());
      EXPECT_EQ(result.established[0].ue, 10u);
      EXPECT_EQ(result.established[0].rnti, assigned);
      // Msg4 rides on a DL DCI addressed to the new C-RNTI.
      bool found_msg4_dci = false;
      for (const auto& enc : result.pdcch.dcis) {
        if (recover_rnti(enc.payload, enc.masked_crc) == assigned) found_msg4_dci = true;
      }
      EXPECT_TRUE(found_msg4_dci);
    }
  }
  EXPECT_TRUE(saw_setup);
  EXPECT_TRUE(enb.is_connected(10));
  EXPECT_EQ(enb.rnti_of(10), assigned);
}

TEST(Enb, HandoverAdmissionSkipsMsg3) {
  Enb enb = make_enb();
  TimeMs now = 0;
  enb.admit_handover(5, 0x11112222, now);
  bool established = false;
  for (int i = 0; i < 10; ++i) {
    const auto result = step(enb, now++);
    EXPECT_TRUE(result.rrc_requests.empty()) << "contention-free RACH has no Msg3";
    EXPECT_TRUE(result.rrc_setups.empty());
    if (!result.established.empty()) {
      established = true;
      break;
    }
  }
  EXPECT_TRUE(established);
  EXPECT_TRUE(enb.is_connected(5));
}

TEST(Enb, DuplicateConnectionRequestsIgnored) {
  Enb enb = make_enb();
  TimeMs now = 0;
  enb.start_connection(1, 0xAA, now);
  enb.start_connection(1, 0xAA, now);  // duplicate while connecting
  int established = 0;
  for (int i = 0; i < 20; ++i) {
    established += static_cast<int>(step(enb, now++).established.size());
  }
  EXPECT_EQ(established, 1);
  enb.start_connection(1, 0xAA, now);  // already connected
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(step(enb, now++).established.empty());
  }
}

TEST(Enb, TrafficProducesDcisAndDrainsBuffer) {
  Enb enb = make_enb();
  TimeMs now = 0;
  connect_ue(enb, 1, 0xAA, now);
  const Rnti rnti = *enb.rnti_of(1);

  enb.push_traffic(1, Direction::kDownlink, 10'000, now);
  enb.push_traffic(1, Direction::kUplink, 4'000, now);
  long long dl_tbs = 0, ul_tbs = 0;
  for (int i = 0; i < 200; ++i) {
    const auto result = step(enb, now++);
    for (const auto& enc : result.pdcch.dcis) {
      if (recover_rnti(enc.payload, enc.masked_crc) != rnti) continue;
      const auto dci = decode_dci_fields(enc);
      ASSERT_TRUE(dci.has_value());
      if (dci->direction == Direction::kDownlink) {
        dl_tbs += dci->tb_bytes();
      } else {
        ul_tbs += dci->tb_bytes();
      }
    }
  }
  EXPECT_GE(dl_tbs, 10'000);  // TBS padding means >= payload
  EXPECT_GE(ul_tbs, 4'000);
  EXPECT_LT(dl_tbs, 10'000 + 3000) << "padding should be bounded";
}

TEST(Enb, InactivityReleasesRntiAndEmitsRrcRelease) {
  Enb enb = make_enb();  // lab profile: 10 s timeout
  TimeMs now = 0;
  connect_ue(enb, 1, 0xAA, now);
  const Rnti rnti = *enb.rnti_of(1);

  bool released = false;
  for (int i = 0; i < 11'000 && !released; ++i) {
    const auto result = step(enb, now++);
    if (!result.rrc_releases.empty()) {
      EXPECT_EQ(result.rrc_releases[0].rnti, rnti);
      ASSERT_FALSE(result.released.empty());
      EXPECT_EQ(result.released[0], 1u);
      released = true;
    }
  }
  EXPECT_TRUE(released);
  EXPECT_FALSE(enb.is_connected(1));
  EXPECT_GE(now, operator_profile(Operator::kLab).inactivity_timeout);
}

TEST(Enb, ActivityRefreshesInactivityTimer) {
  Enb enb = make_enb();
  TimeMs now = 0;
  connect_ue(enb, 1, 0xAA, now);
  // Keep nudging traffic every 5 s; the 10 s timer must never fire.
  for (int burst = 0; burst < 4; ++burst) {
    enb.push_traffic(1, Direction::kUplink, 100, now);
    for (int i = 0; i < 5000; ++i) {
      EXPECT_TRUE(step(enb, now++).released.empty());
    }
  }
  EXPECT_TRUE(enb.is_connected(1));
}

TEST(Enb, ReconnectAssignsFreshRnti) {
  Enb enb = make_enb();
  TimeMs now = 0;
  connect_ue(enb, 1, 0xAA, now);
  const Rnti first = *enb.rnti_of(1);
  enb.release_ue(1, now);
  EXPECT_FALSE(enb.is_connected(1));
  connect_ue(enb, 1, 0xAA, now);
  const Rnti second = *enb.rnti_of(1);
  EXPECT_NE(first, second) << "cooldown must prevent immediate RNTI reuse";
}

TEST(Enb, PagingEmitsPRntiDci) {
  Enb enb = make_enb();
  enb.page(0x1234);
  const auto result = step(enb, 0);
  ASSERT_FALSE(result.pdcch.dcis.empty());
  EXPECT_EQ(recover_rnti(result.pdcch.dcis[0].payload, result.pdcch.dcis[0].masked_crc),
            kPagingRnti);
}

TEST(Enb, StepClearsTheResultItRefills) {
  Enb enb = make_enb();
  TimeMs now = 0;
  enb.start_connection(1, 0xAA, now);
  enb.page(0x1234);
  EnbStepResult result;
  enb.step(now++, result);
  EXPECT_EQ(result.rach.size(), 1u);
  EXPECT_EQ(result.pdcch.dcis.size(), 1u);  // the page
  enb.step(now++, result);
  EXPECT_EQ(result.pdcch.time, 1);
  EXPECT_TRUE(result.rach.empty());
  EXPECT_TRUE(result.pdcch.dcis.empty());
}

TEST(Enb, PushTrafficForUnknownUeIsIgnored) {
  Enb enb = make_enb();
  enb.push_traffic(99, Direction::kDownlink, 100, 0);  // must not crash
  const auto result = step(enb, 0);
  EXPECT_TRUE(result.pdcch.dcis.empty());
}

}  // namespace
}  // namespace ltefp::lte
