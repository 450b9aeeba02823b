// Streaming binary trace writer (.ltt, format v2 — see format.hpp).
//
// Record compression, chosen for the shape of DCI traces:
//  - timestamps are non-decreasing → small zigzag delta vs the previous record;
//  - one victim uses a handful of RNTIs → per-chunk dictionary, indices
//    instead of 16-bit values (a new RNTI is appended inline on first use);
//  - the cell rarely changes → zigzag delta vs the previous record's cell;
//  - TBS and direction share one varint: (zigzag(tb_bytes) << 1) | dir.
//
// The codec state RESETS at every chunk boundary, making each chunk
// self-contained, and close() appends a chunk directory ('D') plus a fixed
// trailer so MappedReader can seek straight to any chunk by time or RNTI
// without decoding its predecessors. With `compress` set, each record
// chunk is additionally run through the block compressor and stored as a
// 'Z' chunk when that measurably wins.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "sniffer/trace.hpp"
#include "tracestore/format.hpp"
#include "tracestore/record_codec.hpp"
#include "tracestore/varint.hpp"

namespace ltefp::tracestore {

struct WriterOptions {
  /// Records buffered per 'R' chunk before it is framed and flushed.
  std::size_t records_per_chunk = 4096;
  /// On-disk format version. kFormatVersionV2 is the only one; Writer
  /// throws on any other value.
  std::uint8_t version = kFormatVersionV2;
  /// Try block compression per chunk, keep it when it shrinks the stored
  /// payload.
  bool compress = false;
};

class Writer {
 public:
  /// Writes the header and metadata chunk immediately.
  Writer(std::ostream& out, const TraceMeta& meta, WriterOptions options = {});

  /// close() must be called to emit the end chunk; a destroyed-but-unclosed
  /// Writer leaves a file that readers reject as truncated (by design).
  ~Writer() = default;

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Throws TraceStoreError when `record.time` is below the previous
  /// record's time: traces are stored time-ordered.
  void add(const sniffer::TraceRecord& record);

  /// Flushes buffered records and writes the 'E' chunk, the chunk
  /// directory and the trailer; returns the file's size in bytes.
  /// Idempotent.
  std::size_t close();

  std::size_t records_written() const { return total_records_; }

 private:
  void flush_chunk();
  /// Frames and writes one chunk; returns the file offset of its kind byte.
  std::size_t write_chunk(std::uint8_t kind, const ByteWriter& payload);
  void write_directory();

  std::ostream& out_;
  WriterOptions options_;
  ByteWriter chunk_;
  std::size_t chunk_records_ = 0;
  std::size_t total_records_ = 0;
  std::size_t bytes_written_ = 0;
  bool closed_ = false;

  // Compression state, reset at every chunk boundary.
  RecordEncodeState state_;

  // Time of the last record added (the ordering check's reference).
  TimeMs last_time_ = 0;

  // Per-chunk directory stats, accumulated in add().
  TimeMs chunk_time_min_ = 0;
  TimeMs chunk_time_max_ = 0;
  std::uint64_t chunk_bloom_ = 0;
  std::vector<ChunkInfo> chunks_;
};

/// One-shot convenience: header + records + end chunk. Returns bytes written.
std::size_t write_trace(std::ostream& out, const TraceMeta& meta, const sniffer::Trace& trace,
                        WriterOptions options = {});

}  // namespace ltefp::tracestore
