// CRC-16 as attached to PDCCH DCI payloads (TS 36.212 Section 5.1.1,
// polynomial gCRC16(D) = D^16 + D^12 + D^5 + 1, i.e. CCITT 0x1021).
//
// On the real PDCCH the 16 CRC parity bits are scrambled (XORed) with the
// UE's RNTI. This is precisely the side channel the sniffer exploits: by
// re-computing the CRC over the received payload and XORing it against the
// received parity bits, a passive observer recovers the RNTI of every
// scheduled UE without any key material.
#pragma once

#include <cstdint>
#include <span>

#include "lte/types.hpp"

namespace ltefp::lte {

/// CRC-16/CCITT (polynomial 0x1021, init 0x0000) over a byte payload.
/// Table-driven (slice-by-8, 4 KiB of constexpr tables); the one CRC kernel
/// behind DCI masking, RNTI recovery and every .ltt chunk and trailer check.
std::uint16_t crc16(std::span<const std::uint8_t> payload);

/// CRC parity masked with the RNTI, as transmitted on the PDCCH.
std::uint16_t crc16_masked(std::span<const std::uint8_t> payload, Rnti rnti);

/// Recovers the RNTI that was XORed into `masked_crc` for this payload.
/// (Inverse of crc16_masked; any 16-bit value is returned, the caller must
/// validate plausibility — exactly what real blind decoders like OWL/FALCON
/// have to do.)
Rnti recover_rnti(std::span<const std::uint8_t> payload, std::uint16_t masked_crc);

}  // namespace ltefp::lte
