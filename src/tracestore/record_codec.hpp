// The record-level codec of the .ltt format.
//
// One encoder and one decoder implementation: Writer encodes with it and
// MappedReader decodes with it, so the two agree by construction (pinned
// again by round-trip tests over random traces).
//
// Per record (see writer.hpp for the rationale):
//   time  := zigzag varint delta vs the previous record
//   rnti  := dictionary index varint; index == dict size appends a new
//            entry whose raw 16-bit value follows as a varint
//   tb/dir:= varint of (zigzag(tb_bytes) << 1) | direction
//   cell  := zigzag varint delta vs the previous record's cell
//
// The state resets at every chunk boundary so chunks decode independently
// (seekable).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sniffer/trace.hpp"
#include "tracestore/format.hpp"
#include "tracestore/varint.hpp"

namespace ltefp::tracestore {

/// Decoder-side cross-record state.
struct RecordDecodeState {
  TimeMs prev_time = 0;
  lte::CellId prev_cell = 0;
  std::vector<lte::Rnti> rnti_dict;
};

/// Encoder-side cross-record state (dictionary as a map for O(1) lookup;
/// insertion order mirrors the decoder's append order exactly).
struct RecordEncodeState {
  TimeMs prev_time = 0;
  lte::CellId prev_cell = 0;
  std::unordered_map<lte::Rnti, std::uint32_t> rnti_dict;
};

/// Appends one encoded record to `out`, advancing `state`.
void encode_record(ByteWriter& out, RecordEncodeState& state, const sniffer::TraceRecord& record);

/// Encodes a metadata ('M') chunk payload.
ByteWriter encode_meta(const TraceMeta& meta);

/// Decodes and validates a metadata chunk payload (including the
/// trailing-bytes check).
TraceMeta decode_meta(ByteReader& r);

/// Decodes `count` records from `r`, appending to `out` and advancing
/// `state`. Callers must already have clamped `count` against the chunk
/// capacity (count <= payload_size / kMinRecordBytes — the tainted-alloc
/// contract lives at the call site so the bound check is visible to the
/// linter) and are responsible for the trailing-bytes check after the
/// last record.
void decode_records(ByteReader& r, RecordDecodeState& state, std::uint64_t count,
                    std::vector<sniffer::TraceRecord>& out);

}  // namespace ltefp::tracestore
