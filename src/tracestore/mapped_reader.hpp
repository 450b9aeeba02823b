// Zero-copy trace reader over a memory-mapped .ltt image.
//
// Files carry a chunk directory (see format.hpp): at open, MappedReader
// validates ONLY the header, metadata chunk, trailer, directory frame and
// end chunk — O(directory), never the record payloads. Record chunks are
// decoded lazily, one at a time, straight out of the mapping, and one
// ranged cursor is the only code that walks the directory:
//
//   - cursor(t0, t1, rnti) binary-searches the time-ordered directory
//     (checked at open) for the first chunk that can intersect [t0, t1],
//     skips chunks by time range and RNTI bloom before touching their
//     pages, stops at the first chunk past t1, and yields only matching
//     records. A narrow slice of a large file costs O(log chunks +
//     matching chunks); memory is one decoded chunk. Once drained it
//     reports how many chunks it decoded and skipped.
//   - read_all() drains an unranged cursor. Every chunk decode
//     cross-checks its directory entry (record count, time range, RNTI
//     bloom) against the decoded records, so a full drain is the strict
//     whole-file integrity mode.
//
// A version byte other than kFormatVersionV2 is rejected at open.
//
// Hardening: the directory is attacker-controlled like any other input.
// Every offset and length read from it is clamped against the mapped
// length BEFORE a span is formed, chunk frames re-verify kind/length/CRC
// at decode time against the directory's claims, and decoded chunk stats
// must reproduce the directory entry exactly. A directory whose chunk time
// ranges step backwards is rejected at open, and a chunk whose records go
// back in time at decode; a cursor yields no record of a chunk that failed
// its checks. A forged directory yields a TraceStoreError, never an
// out-of-range read.
//
// Lifetime: a MappedReader borrows nothing from callers (it owns its
// MappedFile) except when constructed over a caller-provided span; decoded
// records are always owned copies. Internal chunk views borrow the mapping
// and never escape the call that formed them.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sniffer/trace.hpp"
#include "tracestore/format.hpp"

namespace ltefp::tracestore {

class MappedReader {
 public:
  /// Maps `path` and validates header/meta/trailer/directory/end chunk.
  explicit MappedReader(const std::string& path);

  /// Reads an in-memory image (tests, corruption harnesses). The span must
  /// outlive the reader — no copy is taken.
  explicit MappedReader(std::span<const std::uint8_t> image,
                        std::string context = "trace image");

  ~MappedReader();
  MappedReader(MappedReader&&) noexcept;
  MappedReader& operator=(MappedReader&&) noexcept;
  MappedReader(const MappedReader&) = delete;
  MappedReader& operator=(const MappedReader&) = delete;

  const TraceMeta& meta() const;
  /// File was written with the compression flag set.
  bool compressed() const;
  /// Record count declared by the end chunk.
  std::uint64_t declared_records() const;
  /// The chunk directory, one entry per record chunk.
  const std::vector<ChunkInfo>& chunks() const;

  /// Full strict decode: drains an unranged cursor.
  sniffer::Trace read_all() const;

  /// Streaming cursor over the records with time in [t0, t1] (and
  /// matching `rnti`, when given), in file order, one decoded chunk
  /// resident at a time. The cursor borrows the reader — the reader must
  /// outlive it.
  class Cursor {
   public:
    ~Cursor();
    Cursor(Cursor&&) noexcept;
    Cursor& operator=(Cursor&&) noexcept;
    Cursor(const Cursor&) = delete;
    Cursor& operator=(const Cursor&) = delete;

    /// Yields the next matching record; false at a clean end of the
    /// range. Throws TraceStoreError on any integrity problem.
    bool next(sniffer::TraceRecord& record);

    /// Appends every remaining matching record to `out` — what a loop
    /// over next() would yield, a chunk at a time.
    void drain(sniffer::Trace& out);

    /// Chunks decoded and chunks skipped (by the directory's time ranges
    /// and RNTI blooms) so far; once next() has returned false, or drain()
    /// has returned, they sum to chunks().size().
    std::size_t chunks_decoded() const;
    std::size_t chunks_skipped() const;

   private:
    friend class MappedReader;
    struct State;
    explicit Cursor(std::unique_ptr<State> state);
    std::unique_ptr<State> state_;
  };
  Cursor cursor(TimeMs t0 = std::numeric_limits<TimeMs>::min(),
                TimeMs t1 = std::numeric_limits<TimeMs>::max(),
                std::optional<lte::Rnti> rnti = std::nullopt) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ltefp::tracestore
