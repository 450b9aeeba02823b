#include "lte/dci.hpp"

#include <gtest/gtest.h>

#include "lte/crc.hpp"
#include "lte/tbs.hpp"

namespace ltefp::lte {
namespace {

struct DciCase {
  Direction direction;
  Rnti rnti;
  std::uint8_t mcs;
  std::uint8_t nprb;
  std::uint8_t harq;
  bool ndi;
};

// Names the case by its fields: gtest's default printer dumps the raw
// object bytes, padding included, which differ from build to build.
void PrintTo(const DciCase& c, std::ostream* os) {
  *os << (c.direction == Direction::kUplink ? "UL" : "DL") << "_rnti" << c.rnti << "_mcs"
      << int{c.mcs} << "_nprb" << int{c.nprb} << "_harq" << int{c.harq} << "_ndi" << c.ndi;
}

class DciRoundTrip : public ::testing::TestWithParam<DciCase> {};

TEST_P(DciRoundTrip, EncodeDecodeRecovers) {
  const DciCase& c = GetParam();
  Dci dci;
  dci.direction = c.direction;
  dci.rnti = c.rnti;
  dci.mcs = c.mcs;
  dci.nprb = c.nprb;
  dci.harq_id = c.harq;
  dci.ndi = c.ndi;

  const EncodedDci enc = encode_dci(dci);
  const auto decoded = decode_dci_fields(enc);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->direction, c.direction);
  EXPECT_EQ(decoded->mcs, c.mcs);
  EXPECT_EQ(decoded->nprb, c.nprb);
  EXPECT_EQ(decoded->harq_id, c.harq);
  EXPECT_EQ(decoded->ndi, c.ndi);
  // RNTI comes back through CRC unmasking, as on a real PDCCH.
  EXPECT_EQ(recover_rnti(enc.payload, enc.masked_crc), c.rnti);
  // TBS derives from (mcs, nprb).
  EXPECT_EQ(decoded->tb_bytes(), max_tb_bytes(c.mcs, c.nprb));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DciRoundTrip,
    ::testing::Values(DciCase{Direction::kDownlink, 0x003D, 0, 1, 0, false},
                      DciCase{Direction::kUplink, 0x1234, 15, 25, 3, true},
                      DciCase{Direction::kDownlink, 0xFFF3, 28, 110, 7, true},
                      DciCase{Direction::kUplink, 0x8001, 9, 50, 5, false},
                      DciCase{Direction::kDownlink, kPagingRnti, 2, 2, 0, false}));

TEST(Dci, MalformedPayloadRejected) {
  Dci dci;
  dci.mcs = 4;
  dci.nprb = 10;
  EncodedDci enc = encode_dci(dci);
  for (const int length : {0, 2, 3, 5, 8}) {
    EncodedDci wrong = enc;
    wrong.payload.length = static_cast<std::uint8_t>(length);  // wrong length, valid fields
    EXPECT_FALSE(decode_dci_fields(wrong).has_value()) << "length " << length;
  }

  enc.payload[1] = 29;  // invalid MCS
  EXPECT_FALSE(decode_dci_fields(enc).has_value());
  enc.payload[1] = 4;
  enc.payload[2] = 0;  // invalid PRB count
  EXPECT_FALSE(decode_dci_fields(enc).has_value());
  enc.payload[2] = 111;
  EXPECT_FALSE(decode_dci_fields(enc).has_value());
}

TEST(Dci, CorruptedPayloadChangesRecoveredRnti) {
  Dci dci;
  dci.rnti = 0x4321;
  dci.mcs = 10;
  dci.nprb = 6;
  EncodedDci enc = encode_dci(dci);
  enc.payload[2] ^= 0x01;
  EXPECT_NE(recover_rnti(enc.payload, enc.masked_crc), 0x4321);
}

}  // namespace
}  // namespace ltefp::lte
