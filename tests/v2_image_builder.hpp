// Hand-rolled v2 .ltt image builder for tests that need CRC-valid files
// the Writer refuses to produce: forged directories and records that go
// back in time. The honest output is byte-identical to Writer's (pinned by
// MappedV2.HandBuiltImageMatchesWriterByteForByte), and a `mutate` hook can
// tamper with the directory entries / declared count while every CRC
// stays valid — exactly the forgeries a reader must catch semantically,
// not via framing checks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "lte/crc.hpp"
#include "sniffer/trace.hpp"
#include "tracestore/format.hpp"
#include "tracestore/record_codec.hpp"
#include "tracestore/varint.hpp"

namespace ltefp::tracestore::test_images {

inline void append_chunk(std::string& image, std::uint8_t kind,
                         const std::vector<std::uint8_t>& payload) {
  ByteWriter frame;
  frame.put_u8(kind);
  frame.put_varint(payload.size());
  for (const std::uint8_t b : payload) frame.put_u8(b);
  const std::uint16_t crc = lte::crc16(payload);
  frame.put_u8(static_cast<std::uint8_t>(crc & 0xFF));
  frame.put_u8(static_cast<std::uint8_t>(crc >> 8));
  for (const std::uint8_t b : frame.bytes()) image.push_back(static_cast<char>(b));
}

inline std::vector<std::uint8_t> encode_directory(
    const std::vector<ChunkInfo>& infos, std::optional<std::uint64_t> count_override = {}) {
  ByteWriter dir;
  dir.put_varint(count_override.value_or(infos.size()));
  std::uint64_t prev_offset = 0;
  for (const ChunkInfo& c : infos) {
    dir.put_varint(c.offset - prev_offset);
    prev_offset = c.offset;
    dir.put_varint(c.payload_len);
    dir.put_varint(c.records);
    dir.put_signed(c.time_min);
    dir.put_varint(static_cast<std::uint64_t>(c.time_max - c.time_min));
    dir.put_u64_le(c.rnti_bloom);
  }
  return dir.bytes();
}

inline void append_trailer(std::string& image, std::uint64_t dir_offset) {
  ByteWriter trailer;
  trailer.put_u64_le(dir_offset);
  const std::uint16_t crc = lte::crc16(trailer.bytes());
  trailer.put_u8(static_cast<std::uint8_t>(crc & 0xFF));
  trailer.put_u8(static_cast<std::uint8_t>(crc >> 8));
  for (const char ch : kTrailerMagic) trailer.put_u8(static_cast<std::uint8_t>(ch));
  for (const std::uint8_t b : trailer.bytes()) image.push_back(static_cast<char>(b));
}

using DirectoryMutator = std::function<void(std::vector<ChunkInfo>&, std::uint64_t&)>;

/// A v2 image with one records chunk per element of `chunk_traces`,
/// written as given (in any order) with honest directory entries.
inline std::string build_v2(const TraceMeta& meta, const std::vector<sniffer::Trace>& chunk_traces,
                            const DirectoryMutator& mutate = {},
                            std::optional<std::uint64_t> dir_count_override = {}) {
  std::string image(kMagic, sizeof(kMagic));
  image.push_back(static_cast<char>(kFormatVersionV2));
  image.push_back(0);  // flags: no compression
  append_chunk(image, kChunkMeta, encode_meta(meta).bytes());

  std::vector<ChunkInfo> infos;
  std::uint64_t total = 0;
  for (const auto& records : chunk_traces) {
    ByteWriter payload;
    payload.put_varint(records.size());
    RecordEncodeState state;  // v2 chunks are self-contained
    ChunkInfo info;
    info.offset = image.size();
    info.records = records.size();
    info.time_min = info.time_max = records.front().time;
    for (const auto& r : records) {
      info.time_min = std::min(info.time_min, r.time);
      info.time_max = std::max(info.time_max, r.time);
      info.rnti_bloom |= rnti_bloom_mask(r.rnti);
      encode_record(payload, state, r);
    }
    info.payload_len = payload.size();
    append_chunk(image, kChunkRecords, payload.bytes());
    infos.push_back(info);
    total += records.size();
  }

  if (mutate) mutate(infos, total);

  ByteWriter end;
  end.put_varint(total);
  append_chunk(image, kChunkEnd, end.bytes());

  const std::uint64_t dir_offset = image.size();
  append_chunk(image, kChunkDirectory, encode_directory(infos, dir_count_override));
  append_trailer(image, dir_offset);
  return image;
}

}  // namespace ltefp::tracestore::test_images
