// Binary DCI trace format ("LTT" files) — the capture-once/replay-many
// substrate for every experiment in the repo.
//
//   file    := magic "LTT1" | version u8 = 2 | flags u8
//              | 'M' chunk | ('R' | 'Z' chunk)* | 'E' chunk
//              | 'D' chunk | trailer
//   chunk   := kind u8 | payload_len varint | payload | crc16(payload) LE
//   trailer := dir_offset u64 LE | crc16(dir_offset bytes) LE | "LTTX"
//
// 'M' is the metadata chunk, 'R' a records chunk, 'E' the end chunk
// (payload = total record count). The CRC-16 is the same CCITT polynomial
// the PDCCH attaches to DCIs (`lte::crc16`) — fitting, since the payloads
// are decoded DCIs.
//
// Every record chunk resets the delta/dictionary coder state, so it decodes
// on its own (the price of O(1) seek is a slightly larger dictionary
// re-learn cost per chunk). 'Z' chunks are block-compressed 'R' payloads
// (see block.hpp), emitted only when the compressor actually wins for that
// chunk; bit 0 of the header flags says the file may contain them. The 'D'
// (directory) chunk stores one entry per record chunk — byte offset,
// payload size, record count, time range, 64-bit RNTI bloom — which is
// what gives O(log chunks) seek by time and RNTI without touching
// non-matching chunks.
//
// Records are time-ordered: the writer refuses a record older than its
// predecessor, and a reader rejects a directory whose chunk ranges overlap
// backwards or a chunk whose records go back in time.
//
// Records are delta/dictionary compressed (see writer.hpp); integers use
// LEB128 varints with zigzag for signed values. A missing trailer or 'E'
// chunk means the file was truncated mid-capture; a CRC mismatch means
// corruption. Readers must reject both with a diagnostic, never a partial
// trace.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "lte/types.hpp"

namespace ltefp::tracestore {

/// File magic: "LTT1" (LTefp Trace, family 1).
inline constexpr char kMagic[4] = {'L', 'T', 'T', '1'};
/// The only on-disk format version; any other version byte is rejected.
inline constexpr std::uint8_t kFormatVersionV2 = 2;

/// Chunk kinds.
inline constexpr std::uint8_t kChunkMeta = 'M';
inline constexpr std::uint8_t kChunkRecords = 'R';
inline constexpr std::uint8_t kChunkEnd = 'E';
inline constexpr std::uint8_t kChunkCompressed = 'Z';
inline constexpr std::uint8_t kChunkDirectory = 'D';

/// Header flag bits. Any other set bit is a format the reader does not
/// understand and must reject (forward compatibility by refusal, like the
/// version byte).
inline constexpr std::uint8_t kFlagCompressed = 0x01;
inline constexpr std::uint8_t kKnownV2Flags = kFlagCompressed;

/// Trailer: fixed 14 bytes at the very end of the file. The directory
/// offset is CRC-guarded so a flipped trailer byte is caught directly
/// instead of sending the reader to a random in-file position.
inline constexpr char kTrailerMagic[4] = {'L', 'T', 'T', 'X'};
inline constexpr std::size_t kTrailerSize = 8 + 2 + 4;

/// Header size: magic + version + flags.
inline constexpr std::size_t kHeaderSizeV2 = sizeof(kMagic) + 2;

/// Upper bound on a single chunk's payload, so a corrupted length varint
/// cannot trigger a multi-gigabyte allocation before the CRC check.
inline constexpr std::uint64_t kMaxChunkPayload = 1ULL << 26;  // 64 MiB

/// Every record encodes to at least this many bytes (time delta, RNTI code,
/// TBS/direction, cell delta — one varint byte each), so a records chunk of
/// P payload bytes can hold at most P / kMinRecordBytes records. A decoded
/// record count claiming more is corruption and must be rejected before it
/// sizes any allocation.
inline constexpr std::uint64_t kMinRecordBytes = 4;

/// Hard cap on records in one chunk, implied by the payload cap above.
inline constexpr std::uint64_t kMaxRecordsPerChunk =
    kMaxChunkPayload / kMinRecordBytes;

/// One directory entry per record chunk. Offsets are absolute file
/// positions of the chunk's kind byte; `payload_len` is the *stored*
/// payload size (compressed size for 'Z' chunks), so a reader can clamp
/// every view against the mapped length before touching chunk bytes.
struct ChunkInfo {
  std::uint64_t offset = 0;
  std::uint64_t payload_len = 0;
  std::uint64_t records = 0;
  TimeMs time_min = 0;
  TimeMs time_max = 0;
  std::uint64_t rnti_bloom = 0;

  bool operator==(const ChunkInfo&) const = default;
};

/// Smallest possible encoded directory entry (five one-byte varints plus
/// the fixed 8-byte bloom) — the clamp that keeps a forged entry count
/// from sizing an allocation beyond what the payload can actually hold.
inline constexpr std::uint64_t kMinDirEntryBytes = 5 + 8;

/// Two-bit bloom signature of one RNTI inside a chunk's 64-bit filter.
/// False positives only cost a wasted chunk decode; false negatives are
/// impossible, so a bloom-pruned scan stays exact.
inline std::uint64_t rnti_bloom_mask(lte::Rnti rnti) {
  const std::uint64_t h = splitmix64_mix(0x524E5449ULL ^ rnti);  // "RNTI"
  return (1ULL << (h & 63)) | (1ULL << ((h >> 6) & 63));
}

inline bool rnti_bloom_may_contain(std::uint64_t bloom, lte::Rnti rnti) {
  const std::uint64_t mask = rnti_bloom_mask(rnti);
  return (bloom & mask) == mask;
}

/// Any structural problem with a trace file: bad magic, unsupported
/// version, framing error, CRC mismatch, truncation, overlong varint.
class TraceStoreError : public std::runtime_error {
 public:
  explicit TraceStoreError(const std::string& what) : std::runtime_error(what) {}
};

/// Per-trace capture metadata, persisted in the 'M' chunk and mirrored in
/// the corpus manifest so experiments can filter without decoding files.
/// `app` is an opaque numeric code (the attack layer stores apps::AppId);
/// `label` is its human-readable name.
struct TraceMeta {
  lte::Operator op = lte::Operator::kLab;
  std::uint16_t app = 0;
  std::string label;
  std::int32_t day = 0;
  std::uint64_t seed = 0;
  lte::CellId cell = 0;
  TimeMs session_start = 0;

  bool operator==(const TraceMeta&) const = default;
};

}  // namespace ltefp::tracestore
