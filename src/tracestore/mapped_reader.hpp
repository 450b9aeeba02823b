// Zero-copy trace reader over a memory-mapped .ltt image.
//
// Files carry a chunk directory (see format.hpp): at open, MappedReader
// validates ONLY the header, metadata chunk, trailer, directory frame and
// end chunk — O(directory), never the record payloads. Record chunks are
// decoded lazily, one at a time, straight out of the mapping:
//
//   - scan(t0, t1, rnti) prunes by the directory's per-chunk time range
//     and RNTI bloom before touching a chunk's pages; the directory is
//     time-ordered (checked at open), so the first candidate is found by
//     binary search and a narrow slice of a large file costs
//     O(log chunks + matching chunks).
//   - cursor() streams chunk by chunk in O(one chunk) memory, which is
//     what ReplaySource's k-way merge wants.
//   - read_all() decodes everything and additionally cross-checks every
//     directory entry (record count, time range, RNTI bloom) against the
//     decoded records — the strict whole-file integrity mode.
//
// A version byte other than kFormatVersionV2 is rejected at open.
//
// Hardening: the directory is attacker-controlled like any other input.
// Every offset and length read from it is clamped against the mapped
// length BEFORE a span is formed, chunk frames re-verify kind/length/CRC
// at decode time against the directory's claims, and decoded chunk stats
// must reproduce the directory entry exactly. A directory whose chunk time
// ranges step backwards is rejected at open, and a chunk whose records go
// back in time at decode. A forged directory yields a TraceStoreError,
// never an out-of-range read.
//
// Lifetime: a MappedReader borrows nothing from callers (it owns its
// MappedFile) except when constructed over a caller-provided span; decoded
// records are always owned copies. Internal chunk views borrow the mapping
// and never escape the call that formed them.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sniffer/trace.hpp"
#include "tracestore/format.hpp"

namespace ltefp::tracestore {

/// What a scan() call did — proof of pruning for tests and benchmarks.
struct ScanStats {
  std::size_t chunks_total = 0;
  std::size_t chunks_decoded = 0;
  std::size_t chunks_skipped_time = 0;
  std::size_t chunks_skipped_rnti = 0;
  std::size_t records_out = 0;
};

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

  /// Full strict decode: every chunk, each verified against its directory
  /// entry.
  sniffer::Trace read_all() const;

  /// Records with time in [t0, t1] (and matching `rnti`, when given), in
  /// file order. Chunks are pruned via the directory; `stats`, when
  /// non-null, reports the pruning achieved.
  sniffer::Trace scan(TimeMs t0, TimeMs t1, std::optional<lte::Rnti> rnti = std::nullopt,
                      ScanStats* stats = nullptr) const;

  /// Streaming cursor over all records, one decoded chunk resident at a
  /// time. The cursor borrows the reader — the reader must outlive it.
  class Cursor {
   public:
    ~Cursor();
    Cursor(Cursor&&) noexcept;
    Cursor& operator=(Cursor&&) noexcept;
    Cursor(const Cursor&) = delete;
    Cursor& operator=(const Cursor&) = delete;

    /// Yields the next record; false at a clean end of trace. Throws
    /// TraceStoreError on any integrity problem.
    bool next(sniffer::TraceRecord& record);

   private:
    friend class MappedReader;
    struct State;
    explicit Cursor(std::unique_ptr<State> state);
    std::unique_ptr<State> state_;
  };
  Cursor cursor() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ltefp::tracestore
