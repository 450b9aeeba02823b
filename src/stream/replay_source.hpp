// Record sources for the streaming daemon.
//
// A StreamSource yields StreamRecords in merged (time, lane) order — the
// global arrival order the driver shards over its workers. ReplaySource is
// the corpus-backed implementation: it opens every .ltt entry of a
// tracestore corpus through Corpus::open_entry, so each file must agree
// with its manifest row as on every other corpus read, and k-way merges
// their memory-mapped cursors, so a multi-gigabyte corpus streams at
// O(lanes × one chunk) memory instead of being decoded whole. Each lane is
// time-ordered because its reader rejects a directory that steps back at
// open and a chunk whose records go back in time before yielding any of
// them. The source is
// clock-free (src/ determinism contract); pacing lives in the CLI.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "stream/session.hpp"
#include "tracestore/mapped_reader.hpp"

namespace ltefp::stream {

class StreamSource {
 public:
  virtual ~StreamSource() = default;
  /// Yields the next record; false at end of stream. Records arrive in
  /// non-decreasing time order, ties broken by ascending lane.
  virtual bool next(StreamRecord& out) = 0;
};

/// Streams an in-memory record list (tests, benchmarks). The records must
/// already be in (time, lane) order.
class VectorSource final : public StreamSource {
 public:
  explicit VectorSource(std::vector<StreamRecord> records)
      : records_(std::move(records)) {}
  bool next(StreamRecord& out) override {
    if (pos_ >= records_.size()) return false;
    out = records_[pos_++];
    return true;
  }

 private:
  std::vector<StreamRecord> records_;
  std::size_t pos_ = 0;
};

/// K-way merges every entry of a tracestore corpus; lane = entry seq.
class ReplaySource final : public StreamSource {
 public:
  /// Opens `directory` (throws TraceStoreError when absent/corrupt, or
  /// when an entry's file disagrees with its manifest row). Lanes stream
  /// lazily, one decoded chunk resident per lane.
  explicit ReplaySource(const std::string& directory);

  ~ReplaySource() override;

  bool next(StreamRecord& out) override;

  std::size_t lanes() const { return streams_.size(); }
  std::size_t records_emitted() const { return emitted_; }

 private:
  struct LaneStream {
    std::uint32_t lane = 0;
    // The reader owns the mapping, so it must outlive the cursor —
    // member order matters.
    std::unique_ptr<tracestore::MappedReader> reader;
    std::optional<tracestore::MappedReader::Cursor> cursor;
    StreamRecord head;  // next record of this lane, already decoded
  };

  bool refill(LaneStream& s);  // loads s.head; false at lane end
  auto later() const;          // heap order: (head.time, lane), min on top

  std::vector<LaneStream> streams_;
  // Min-heap of indices into streams_, ordered by (head.time, lane); kept
  // with std::make_heap/std::push_heap on a plain vector — stream code must
  // not grow unbounded std:: queues (see ltefp-lint "bounded-queues").
  std::vector<std::size_t> heap_;
  std::size_t emitted_ = 0;
};

}  // namespace ltefp::stream
