#include "tracestore/writer.hpp"

#include <ostream>
#include <string>

#include "lte/crc.hpp"
#include "tracestore/block.hpp"

namespace ltefp::tracestore {
namespace {

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

}  // namespace

Writer::Writer(std::ostream& out, const TraceMeta& meta, WriterOptions options)
    : out_(out), options_(options) {
  if (options_.records_per_chunk == 0) options_.records_per_chunk = 1;
  if (options_.version != kFormatVersionV2) {
    throw TraceStoreError("Writer: unsupported format version " +
                          std::to_string(options_.version) + " (supported: " +
                          std::to_string(kFormatVersionV2) + ")");
  }
  out_.write(kMagic, sizeof(kMagic));
  out_.put(static_cast<char>(kFormatVersionV2));
  // Flags byte: readers reject files whose flags they don't know.
  out_.put(static_cast<char>(options_.compress ? kFlagCompressed : 0));
  bytes_written_ += kHeaderSizeV2;
  write_chunk(kChunkMeta, encode_meta(meta));
}

void Writer::add(const sniffer::TraceRecord& record) {
  if (closed_) throw TraceStoreError("Writer::add: writer already closed");
  if (total_records_ > 0 && record.time < last_time_) {
    throw TraceStoreError("Writer::add: record " + std::to_string(total_records_) + " at " +
                          std::to_string(record.time) + " ms precedes its predecessor at " +
                          std::to_string(last_time_) + " ms (traces must be time-ordered)");
  }
  last_time_ = record.time;
  if (chunk_records_ == 0) {
    chunk_time_min_ = record.time;
    chunk_bloom_ = 0;
  }
  chunk_time_max_ = record.time;
  chunk_bloom_ |= rnti_bloom_mask(record.rnti);
  encode_record(chunk_, state_, record);
  ++chunk_records_;
  ++total_records_;
  if (chunk_records_ >= options_.records_per_chunk) flush_chunk();
}

void Writer::flush_chunk() {
  if (chunk_records_ == 0) return;
  ByteWriter payload;
  payload.put_varint(chunk_records_);
  payload.append(chunk_.bytes());

  std::uint8_t kind = kChunkRecords;
  ByteWriter stored;
  if (options_.compress) {
    // Keep the compressed form only when it beats the raw chunk including
    // its own raw-length prefix; otherwise the chunk stays a plain 'R'.
    const std::vector<std::uint8_t> packed = block_compress(payload.bytes());
    if (varint_size(payload.size()) + packed.size() < payload.size()) {
      kind = kChunkCompressed;
      stored.put_varint(payload.size());
      stored.append(packed);
    }
  }
  const ByteWriter& framed = (kind == kChunkCompressed) ? stored : payload;
  ChunkInfo info;
  info.offset = write_chunk(kind, framed);
  info.payload_len = framed.size();
  info.records = chunk_records_;
  info.time_min = chunk_time_min_;
  info.time_max = chunk_time_max_;
  info.rnti_bloom = chunk_bloom_;
  chunks_.push_back(info);
  // Chunks are self-contained: the next chunk restarts deltas and the RNTI
  // dictionary from scratch so MappedReader can decode it alone.
  state_ = RecordEncodeState{};

  chunk_.clear();
  chunk_records_ = 0;
}

std::size_t Writer::close() {
  if (closed_) return bytes_written_;
  flush_chunk();
  ByteWriter end;
  end.put_varint(total_records_);
  write_chunk(kChunkEnd, end);
  write_directory();
  closed_ = true;
  out_.flush();
  return bytes_written_;
}

void Writer::write_directory() {
  ByteWriter dir;
  dir.put_varint(chunks_.size());
  std::uint64_t prev_offset = 0;
  for (const ChunkInfo& c : chunks_) {
    // Offsets are strictly increasing, so deltas stay small varints.
    dir.put_varint(c.offset - prev_offset);
    prev_offset = c.offset;
    dir.put_varint(c.payload_len);
    dir.put_varint(c.records);
    dir.put_signed(c.time_min);
    dir.put_varint(static_cast<std::uint64_t>(c.time_max - c.time_min));
    dir.put_u64_le(c.rnti_bloom);
  }
  const std::size_t dir_offset = write_chunk(kChunkDirectory, dir);

  // Fixed-size trailer: directory offset, CRC over those 8 bytes, magic.
  // The CRC lets a reader distinguish "trailer bytes corrupted" from
  // "directory points somewhere strange" deterministically.
  ByteWriter trailer;
  trailer.put_u64_le(dir_offset);
  const std::uint16_t crc = lte::crc16(trailer.bytes());
  trailer.put_u8(static_cast<std::uint8_t>(crc & 0xFF));
  trailer.put_u8(static_cast<std::uint8_t>(crc >> 8));
  for (char ch : kTrailerMagic) trailer.put_u8(static_cast<std::uint8_t>(ch));
  out_.write(reinterpret_cast<const char*>(trailer.bytes().data()),
             static_cast<std::streamsize>(trailer.size()));
  bytes_written_ += trailer.size();
  if (!out_) throw TraceStoreError("trace write failed (stream error)");
}

std::size_t Writer::write_chunk(std::uint8_t kind, const ByteWriter& payload) {
  const std::size_t offset = bytes_written_;
  ByteWriter frame;
  frame.put_u8(kind);
  frame.put_varint(payload.size());
  out_.write(reinterpret_cast<const char*>(frame.bytes().data()),
             static_cast<std::streamsize>(frame.size()));
  out_.write(reinterpret_cast<const char*>(payload.bytes().data()),
             static_cast<std::streamsize>(payload.size()));
  const std::uint16_t crc = lte::crc16(payload.bytes());
  const char crc_le[2] = {static_cast<char>(crc & 0xFF), static_cast<char>(crc >> 8)};
  out_.write(crc_le, 2);
  bytes_written_ += frame.size() + payload.size() + 2;
  if (!out_) throw TraceStoreError("trace write failed (stream error)");
  return offset;
}

std::size_t write_trace(std::ostream& out, const TraceMeta& meta, const sniffer::Trace& trace,
                        WriterOptions options) {
  Writer writer(out, meta, options);
  for (const auto& r : trace) writer.add(r);
  return writer.close();
}

}  // namespace ltefp::tracestore
