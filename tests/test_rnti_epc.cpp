#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "lte/epc.hpp"
#include "lte/rnti.hpp"

namespace ltefp::lte {
namespace {

TEST(RntiManager, AllocatesUniqueValuesInCRntiRange) {
  RntiManager manager(RntiManagerConfig{}, Rng(1));
  std::set<Rnti> seen;
  for (int i = 0; i < 500; ++i) {
    const Rnti rnti = manager.allocate(0);
    EXPECT_GE(rnti, kMinCRnti);
    EXPECT_LE(rnti, kMaxCRnti);
    EXPECT_TRUE(seen.insert(rnti).second) << "duplicate active RNTI";
  }
  EXPECT_EQ(manager.active_count(), 500u);
}

TEST(RntiManager, ReleaseMakesInactive) {
  RntiManager manager(RntiManagerConfig{}, Rng(2));
  const Rnti rnti = manager.allocate(0);
  EXPECT_TRUE(manager.is_active(rnti));
  manager.release(rnti, 10);
  EXPECT_FALSE(manager.is_active(rnti));
  EXPECT_EQ(manager.active_count(), 0u);
}

TEST(RntiManager, DoubleReleaseIsNoOp) {
  RntiManager manager(RntiManagerConfig{}, Rng(3));
  const Rnti rnti = manager.allocate(0);
  manager.release(rnti, 1);
  manager.release(rnti, 2);  // must not corrupt state
  EXPECT_EQ(manager.active_count(), 0u);
}

TEST(RntiManager, CooldownPreventsImmediateReuse) {
  RntiManagerConfig config;
  config.randomize = false;  // deterministic scan makes reuse observable
  config.reuse_cooldown = 1'000'000;
  RntiManager manager(config, Rng(4));
  const Rnti first = manager.allocate(0);
  manager.release(first, 0);
  // Exhaust every other value in the pool; `first` stays in cooldown.
  constexpr int kPoolSize = kMaxCRnti - kMinCRnti + 1;
  for (int i = 0; i < kPoolSize - 1; ++i) manager.allocate(1);
  // Only the cooling value remains: allocation must refuse to reuse it.
  EXPECT_THROW(manager.allocate(2), std::runtime_error);
  // Once the cooldown expires, the value is reissued.
  EXPECT_EQ(manager.allocate(1'000'001), first);
}

TEST(RntiManager, SequentialModeWrapsAndSkipsActive) {
  RntiManagerConfig config;
  config.randomize = false;
  config.reuse_cooldown = 0;
  RntiManager manager(config, Rng(5));
  const Rnti a = manager.allocate(0);
  const Rnti b = manager.allocate(0);
  EXPECT_EQ(a, kMinCRnti);
  EXPECT_EQ(b, static_cast<Rnti>(kMinCRnti + 1));
}

TEST(RntiManager, RandomizedAssignmentSpreads) {
  RntiManager manager(RntiManagerConfig{}, Rng(6));
  // Random C-RNTIs should not be clustered at the bottom of the range.
  int high = 0;
  for (int i = 0; i < 200; ++i) {
    if (manager.allocate(0) > 0x8000) ++high;
  }
  EXPECT_GT(high, 50);
}

// Drives a seeded mix of allocations, releases, double releases and
// cooldown expiries, folding every issued value and the active count into
// one FNV-1a digest per mode. The digests were taken from the hash-set
// manager; a change here changes which RNTIs a simulation issues.
std::uint64_t allocation_digest(bool randomize) {
  RntiManagerConfig config;
  config.randomize = randomize;
  config.reuse_cooldown = 40;
  RntiManager manager(config, Rng(11));
  Rng ops(12);
  std::vector<Rnti> live;
  std::uint64_t h = 0xCBF29CE484222325ull;
  const auto fold = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ull;
    }
  };
  TimeMs now = 0;
  // 150,000 steps walk the sequential cursor past kMaxCRnti and back.
  for (int step = 0; step < 150'000; ++step) {
    now += static_cast<TimeMs>(ops.index(3));
    if (live.size() < 64 || ops.uniform() < 0.5) {
      live.push_back(manager.allocate(now));
      fold(live.back());
    } else {
      const std::size_t k = ops.index(live.size());
      manager.release(live[k], now);
      if (ops.uniform() < 0.1) manager.release(live[k], now);  // double release
      live[k] = live.back();
      live.pop_back();
    }
    fold(manager.active_count());
  }
  return h;
}

TEST(RntiManager, SeededAllocationSequenceIsPinned) {
  EXPECT_EQ(allocation_digest(true), 0x2D306AC754F9AE5Cull) << std::hex << allocation_digest(true);
  EXPECT_EQ(allocation_digest(false), 0x431075C2E745080Aull) << std::hex << allocation_digest(false);
}

TEST(Epc, AttachAssignsStableTmsi) {
  Epc epc(Rng(1));
  const Tmsi t1 = epc.attach(1001);
  const Tmsi t2 = epc.attach(1001);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(epc.subscriber_count(), 1u);
}

TEST(Epc, DistinctSubscribersDistinctTmsis) {
  Epc epc(Rng(2));
  std::set<Tmsi> tmsis;
  for (Imsi imsi = 1; imsi <= 300; ++imsi) {
    EXPECT_TRUE(tmsis.insert(epc.attach(imsi)).second);
  }
}

TEST(Epc, BidirectionalLookup) {
  Epc epc(Rng(3));
  const Tmsi tmsi = epc.attach(42);
  EXPECT_EQ(epc.tmsi_of(42), tmsi);
  EXPECT_EQ(epc.imsi_of(tmsi), 42u);
  EXPECT_FALSE(epc.tmsi_of(43).has_value());
  EXPECT_FALSE(epc.imsi_of(tmsi + 1).has_value());
}

TEST(Epc, ReallocationChangesTmsiAndInvalidatesOld) {
  Epc epc(Rng(4));
  const Tmsi old_tmsi = epc.attach(7);
  const Tmsi new_tmsi = epc.reallocate_tmsi(7);
  EXPECT_NE(old_tmsi, new_tmsi);
  EXPECT_FALSE(epc.imsi_of(old_tmsi).has_value());
  EXPECT_EQ(epc.imsi_of(new_tmsi), 7u);
  EXPECT_EQ(epc.subscriber_count(), 1u);
}

}  // namespace
}  // namespace ltefp::lte
