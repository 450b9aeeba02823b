// Downlink Control Information (DCI) messages and their over-the-air
// encoding on the PDCCH.
//
// The PDCCH is the one physical channel LTE leaves unencrypted: every
// scheduling decision (who gets PRBs, at which MCS, in which direction) is
// broadcast in plain text, with only the CRC parity bits scrambled by the
// target's RNTI. The simulator encodes genuine DCI payloads so the sniffer
// must do the same work a real-world SDR decoder does: recompute the CRC,
// unmask the RNTI, and reconstruct the transport block size from the
// MCS/PRB fields.
//
// We model the two formats that carry essentially all user traffic:
// format 0 (uplink grants) and format 1A (downlink assignments).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/sim_time.hpp"
#include "lte/types.hpp"

namespace ltefp::lte {

/// Decoded scheduling grant for one UE in one subframe.
struct Dci {
  Direction direction = Direction::kDownlink;  // 1A = DL, 0 = UL
  Rnti rnti = 0;
  std::uint8_t mcs = 0;      // I_MCS 0..28
  std::uint8_t nprb = 1;     // allocated PRBs 1..110
  std::uint8_t harq_id = 0;  // 0..7
  bool ndi = false;          // new-data indicator

  /// Transport block size in bytes implied by (mcs, nprb).
  int tb_bytes() const;

  bool operator==(const Dci&) const = default;
};

/// Packed DCI payload bits, byte-aligned. A fixed-capacity array with a
/// length, so an EncodedDci is a plain value and encoding one allocates
/// nothing. A contiguous range of its `length` bytes, so it passes to
/// crc16/recover_rnti as a std::span.
struct DciPayload {
  static constexpr std::size_t kCapacity = 8;
  std::array<std::uint8_t, kCapacity> bytes{};
  std::uint8_t length = 0;  // <= kCapacity

  std::uint8_t& operator[](std::size_t i) { return bytes[i]; }
  std::uint8_t operator[](std::size_t i) const { return bytes[i]; }
  std::size_t size() const { return length; }
  const std::uint8_t* begin() const { return bytes.data(); }
  const std::uint8_t* end() const { return bytes.data() + length; }
};

/// A DCI as it appears on the air: packed payload plus RNTI-masked CRC.
struct EncodedDci {
  DciPayload payload;
  std::uint16_t masked_crc = 0;
};

/// Packs and CRC-masks a DCI exactly once (deterministic layout).
EncodedDci encode_dci(const Dci& dci);

/// Parses the payload fields of an encoded DCI. Returns nullopt if the
/// payload is malformed (wrong length, out-of-range MCS/PRB). Does NOT
/// recover or validate the RNTI; see lte::recover_rnti / sniffer::.
std::optional<Dci> decode_dci_fields(const EncodedDci& enc);

/// All PDCCH activity of one cell in one 1 ms subframe, as visible to any
/// receiver tuned to that cell.
struct PdcchSubframe {
  TimeMs time = 0;
  CellId cell = 0;
  std::vector<EncodedDci> dcis;
};

}  // namespace ltefp::lte
