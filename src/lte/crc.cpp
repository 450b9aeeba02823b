#include "lte/crc.hpp"

#include <array>
#include <cstddef>

namespace ltefp::lte {
namespace {

using CrcTables = std::array<std::array<std::uint16_t, 256>, 8>;

// Slice-by-8 tables for the MSB-first CRC: kTables[k][b] is the CRC
// contribution of byte b followed by k zero bytes, so eight payload bytes
// fold into the register with eight independent lookups instead of 64
// data-dependent shift/XOR steps. kTables[0] is the classic byte table.
constexpr CrcTables make_tables() {
  CrcTables t{};
  for (unsigned b = 0; b < 256; ++b) {
    unsigned crc = b << 8;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 0x8000u) ? (crc << 1) ^ 0x1021u : crc << 1;
    }
    t[0][b] = static_cast<std::uint16_t>(crc);
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (unsigned b = 0; b < 256; ++b) {
      const unsigned prev = t[k - 1][b];
      t[k][b] = static_cast<std::uint16_t>((prev << 8) ^ t[0][prev >> 8]);
    }
  }
  return t;
}

constexpr CrcTables kTables = make_tables();

static_assert(kTables[0][1] == 0x1021);

}  // namespace

std::uint16_t crc16(std::span<const std::uint8_t> payload) {
  // Byte loads only: no alignment or endianness assumption about the span.
  const std::uint8_t* p = payload.data();
  std::size_t n = payload.size();
  unsigned crc = 0x0000;
  for (; n >= 8; n -= 8, p += 8) {
    // The 16-bit register is XORed into the first two bytes of the slice.
    crc = kTables[7][p[0] ^ (crc >> 8)] ^ kTables[6][p[1] ^ (crc & 0xFFu)] ^
          kTables[5][p[2]] ^ kTables[4][p[3]] ^ kTables[3][p[4]] ^ kTables[2][p[5]] ^
          kTables[1][p[6]] ^ kTables[0][p[7]];
  }
  for (; n > 0; --n, ++p) {
    crc = ((crc << 8) & 0xFFFFu) ^ kTables[0][(crc >> 8) ^ *p];
  }
  return static_cast<std::uint16_t>(crc);
}

std::uint16_t crc16_masked(std::span<const std::uint8_t> payload, Rnti rnti) {
  return static_cast<std::uint16_t>(crc16(payload) ^ rnti);
}

Rnti recover_rnti(std::span<const std::uint8_t> payload, std::uint16_t masked_crc) {
  return static_cast<Rnti>(crc16(payload) ^ masked_crc);
}

}  // namespace ltefp::lte
