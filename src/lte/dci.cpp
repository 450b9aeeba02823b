#include "lte/dci.hpp"

#include "lte/crc.hpp"
#include "lte/tbs.hpp"

namespace ltefp::lte {
namespace {

constexpr std::uint8_t kDciPayloadBytes = 4;
static_assert(kDciPayloadBytes <= DciPayload::kCapacity);
constexpr std::uint8_t kFormatFlagUl = 0x80;  // bit 7: 1 = format 0 (UL)
constexpr std::uint8_t kNdiFlag = 0x08;       // bit 3 of byte 0

}  // namespace

int Dci::tb_bytes() const { return max_tb_bytes(mcs, nprb); }

EncodedDci encode_dci(const Dci& dci) {
  EncodedDci enc;
  enc.payload.length = kDciPayloadBytes;
  std::uint8_t b0 = static_cast<std::uint8_t>(dci.harq_id & 0x07);
  if (dci.direction == Direction::kUplink) b0 |= kFormatFlagUl;
  if (dci.ndi) b0 |= kNdiFlag;
  enc.payload[0] = b0;
  enc.payload[1] = dci.mcs;
  enc.payload[2] = dci.nprb;
  enc.payload[3] = 0x00;  // padding / reserved, as real 1A pads to format-0 size
  enc.masked_crc = crc16_masked(enc.payload, dci.rnti);
  return enc;
}

std::optional<Dci> decode_dci_fields(const EncodedDci& enc) {
  if (enc.payload.size() != kDciPayloadBytes) return std::nullopt;
  Dci dci;
  const std::uint8_t b0 = enc.payload[0];
  dci.direction = (b0 & kFormatFlagUl) ? Direction::kUplink : Direction::kDownlink;
  dci.harq_id = b0 & 0x07;
  dci.ndi = (b0 & kNdiFlag) != 0;
  dci.mcs = enc.payload[1];
  dci.nprb = enc.payload[2];
  if (dci.mcs >= kNumMcs) return std::nullopt;
  if (dci.nprb < 1 || dci.nprb > kMaxPrb) return std::nullopt;
  // rnti stays 0: recovering it needs the CRC unmasking step.
  return dci;
}

}  // namespace ltefp::lte
