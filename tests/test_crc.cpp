#include "lte/crc.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace ltefp::lte {
namespace {

// The definition of the CRC, one bit at a time: the reference the
// table-driven crc16 must match on every input.
std::uint16_t bitwise_crc16(std::span<const std::uint8_t> payload) {
  std::uint16_t crc = 0x0000;
  for (std::uint8_t byte : payload) {
    crc ^= static_cast<std::uint16_t>(byte) << 8;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 0x8000) ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021)
                           : static_cast<std::uint16_t>(crc << 1);
    }
  }
  return crc;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  return bytes;
}

TEST(Crc16, KnownVector) {
  // CRC-16/XMODEM ("123456789") = 0x31C3 — same polynomial/init as
  // TS 36.212 gCRC16.
  const std::string s = "123456789";
  const std::vector<std::uint8_t> payload(s.begin(), s.end());
  EXPECT_EQ(crc16(payload), 0x31C3);
}

TEST(Crc16, EmptyPayload) {
  EXPECT_EQ(crc16({}), 0x0000);
}

TEST(Crc16, DetectsSingleBitFlips) {
  std::vector<std::uint8_t> payload{0x12, 0x34, 0x56, 0x78};
  const std::uint16_t original = crc16(payload);
  for (std::size_t byte = 0; byte < payload.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto corrupted = payload;
      corrupted[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(crc16(corrupted), original)
          << "undetected flip at byte " << byte << " bit " << bit;
    }
  }
}

TEST(Crc16, MatchesBitwiseOracleAtEveryLengthAndOffset) {
  // Lengths 0..256 cover every tail length behind 0..32 whole 8-byte
  // slices; offsets 0..7 start the slices at every byte alignment.
  const auto buffer = random_bytes(256 + 8, 0xC3C);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 256; ++len) {
      const std::span<const std::uint8_t> payload(buffer.data() + offset, len);
      ASSERT_EQ(crc16(payload), bitwise_crc16(payload))
          << "length " << len << " offset " << offset;
    }
  }
}

TEST(Crc16, MatchesBitwiseOracleOnOneMebibyte) {
  const auto buffer = random_bytes(std::size_t{1} << 20, 20);
  EXPECT_EQ(crc16(buffer), bitwise_crc16(buffer));
}

TEST(Crc16, DetectsEverySingleBitFlipInAChunkSizedPayload) {
  // 32,768 flips across 512 slices: every byte position within a slice,
  // so a wrong table at any slice seam shows.
  auto payload = random_bytes(4096, 4096);
  const std::uint16_t original = crc16(payload);
  for (std::size_t byte = 0; byte < payload.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      payload[byte] ^= static_cast<std::uint8_t>(1u << bit);
      ASSERT_NE(crc16(payload), original) << "undetected flip at byte " << byte << " bit " << bit;
      payload[byte] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
}

class RntiMaskRoundTrip : public ::testing::TestWithParam<Rnti> {};

TEST_P(RntiMaskRoundTrip, RecoverReturnsOriginalRnti) {
  const Rnti rnti = GetParam();
  const std::vector<std::uint8_t> payload{0xDE, 0xAD, 0xBE, 0xEF};
  const std::uint16_t masked = crc16_masked(payload, rnti);
  EXPECT_EQ(recover_rnti(payload, masked), rnti);
}

INSTANTIATE_TEST_SUITE_P(Rntis, RntiMaskRoundTrip,
                         ::testing::Values<Rnti>(0x0000, 0x003D, 0x1234, 0x7F2A, 0xFFF3,
                                                 0xFFFE, 0xFFFF));

TEST(RntiMask, DifferentRntisDifferentMask) {
  const std::vector<std::uint8_t> payload{0x01, 0x02, 0x03, 0x04};
  EXPECT_NE(crc16_masked(payload, 0x1111), crc16_masked(payload, 0x2222));
}

TEST(RntiMask, WrongPayloadRecoversWrongRnti) {
  // The aliasing that forces real blind decoders to validate candidates.
  const std::vector<std::uint8_t> payload{0x01, 0x02, 0x03, 0x04};
  const std::uint16_t masked = crc16_masked(payload, 0x1234);
  const std::vector<std::uint8_t> other{0x01, 0x02, 0x03, 0x05};
  EXPECT_NE(recover_rnti(other, masked), 0x1234);
}

}  // namespace
}  // namespace ltefp::lte
