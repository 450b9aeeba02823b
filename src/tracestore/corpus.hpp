// Directory-level trace corpus: many .ltt files plus a manifest index.
//
// The manifest mirrors each trace's metadata — app code, label, operator,
// day, seed, cell, session start, record/byte counts and the trace's time
// range — so experiments filter and schedule loads WITHOUT decoding any
// trace file. This is the capture-once/replay-many layer:
// `attacks::` spills collected sessions here and the pipeline replays them
// bit-identically instead of re-running the radio simulation.
//
// Layout: manifest.csv is a SHARD INDEX — one summary row per shard file
// (manifest_NNNN.csv, one row per trace) carrying entry/record/byte counts,
// day and time ranges, and operator/app bitmasks. A corpus spanning
// thousands of files then filters whole shards by summary before a single
// shard file is parsed, and shards load lazily. File names in either
// manifest must be bare names inside the corpus directory.
//
// range_scan() composes shard pruning, per-entry time/metadata pruning and
// MappedReader's chunk-directory pruning: a narrow time×RNTI slice of a
// multi-GB corpus touches only the shards, files and chunks that can
// contain matches.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "sniffer/trace.hpp"
#include "tracestore/format.hpp"
#include "tracestore/mapped_reader.hpp"
#include "tracestore/writer.hpp"

namespace ltefp::tracestore {

/// One manifest row: a trace file and its capture metadata.
struct CorpusEntry {
  std::size_t seq = 0;       // insertion order; replay iterates in seq order
  std::string file;          // filename relative to the corpus directory
  TraceMeta meta;
  std::size_t records = 0;
  std::size_t bytes = 0;     // encoded size of the trace file
  // Record time range of the trace (both 0 when records == 0).
  TimeMs t0_ms = 0;
  TimeMs t1_ms = 0;
};

/// Metadata predicate for filtered loading. Unset fields match anything.
struct CorpusFilter {
  std::optional<std::uint16_t> app;
  std::optional<lte::Operator> op;
  std::optional<std::int32_t> day_min;
  std::optional<std::int32_t> day_max;
  /// C-RNTIs are per-cell identifiers, so a targeted time/RNTI query is
  /// naturally cell-scoped; this prunes foreign cells at the entry tier.
  std::optional<lte::CellId> cell;

  bool matches(const TraceMeta& meta) const;
};

struct CorpusOptions {
  /// Options for each trace file written (compression, chunking).
  WriterOptions trace;
  /// Entries per shard file; 0 writes one shard holding every entry.
  std::size_t entries_per_shard = 0;
};

/// Appends traces to a corpus directory (created if absent) and writes the
/// manifest on finish(). An unfinished corpus has no manifest, so readers
/// treat it as absent — interrupted captures are never half-visible.
class CorpusWriter {
 public:
  explicit CorpusWriter(std::string directory, CorpusOptions options = {});
  ~CorpusWriter();

  CorpusWriter(const CorpusWriter&) = delete;
  CorpusWriter& operator=(const CorpusWriter&) = delete;

  /// Writes one trace file and records its manifest row.
  const CorpusEntry& add(const TraceMeta& meta, const sniffer::Trace& trace);

  /// Writes the shard files and the shard index. Idempotent.
  void finish();

  const std::vector<CorpusEntry>& entries() const { return entries_; }
  std::size_t total_bytes() const;

 private:
  std::string directory_;
  CorpusOptions options_;
  std::vector<CorpusEntry> entries_;
  bool finished_ = false;
};

/// A time × RNTI × metadata slice request for Corpus::range_scan.
struct RangeQuery {
  TimeMs t0 = std::numeric_limits<TimeMs>::min();
  TimeMs t1 = std::numeric_limits<TimeMs>::max();
  std::optional<lte::Rnti> rnti;
  CorpusFilter filter;
};

/// What a range_scan did — pruning proof for tests and benchmarks.
struct RangeScanStats {
  std::size_t shards_total = 0;
  std::size_t shards_pruned = 0;    // skipped without parsing the shard file
  std::size_t entries_considered = 0;
  std::size_t entries_pruned = 0;   // skipped without opening the .ltt file
  std::size_t files_opened = 0;
  std::size_t chunks_decoded = 0;   // across all opened files
  std::size_t chunks_skipped = 0;   // pruned by chunk directories
  std::size_t records_out = 0;
};

/// Read-only view of a finished corpus.
class Corpus {
 public:
  /// True when `directory` holds a corpus manifest.
  static bool exists(const std::string& directory);

  /// Parses the shard index (shard files load lazily); throws
  /// TraceStoreError when absent or malformed.
  static Corpus open(const std::string& directory);

  const std::string& directory() const { return directory_; }

  /// All manifest rows in seq order. This forces every shard file to load
  /// (lazily, cached). Not thread-safe against concurrent lazy loads —
  /// call from one thread, like open().
  const std::vector<CorpusEntry>& entries() const;

  /// Entries matching `filter`, in seq order — metadata only, no trace
  /// decoding. Shards whose summary cannot match are skipped unparsed.
  std::vector<CorpusEntry> select(const CorpusFilter& filter) const;

  /// Maps one entry's trace file after checking it against the manifest
  /// row: the embedded metadata must match, and the file must declare the
  /// row's record count. Every read of an entry goes through this check.
  MappedReader open_entry(const CorpusEntry& entry) const;

  /// Decodes one entry's trace file (memory-mapped) through open_entry(),
  /// verifying framing as it goes.
  sniffer::Trace load(const CorpusEntry& entry) const;

  /// One decoded trace paired with its manifest entry.
  struct LoadedTrace {
    CorpusEntry entry;
    sniffer::Trace trace;
  };

  /// Decodes every entry matching `filter`, in seq order. The .ltt files
  /// decode concurrently on the global pool (each task owns its own
  /// mapping and output slot); the first decode error is rethrown. Result
  /// order is select() order at any thread count.
  std::vector<LoadedTrace> load_all(const CorpusFilter& filter = {}) const;

  /// Records with time in [q.t0, q.t1] (and matching q.rnti / q.filter),
  /// grouped per entry in seq order. Prunes shards by summary, entries by
  /// manifest time range, and chunks by each file's directory; files
  /// decode concurrently like load_all, each through the same reader as
  /// load(). Entries whose slice is empty are dropped.
  std::vector<LoadedTrace> range_scan(const RangeQuery& q, RangeScanStats* stats = nullptr) const;

  /// One shard-index row (public so the .cpp's pruning helpers can see it;
  /// not part of the stable API surface).
  struct Shard;

 private:
  std::string directory_;
  std::vector<Shard> shards_;
  mutable std::vector<CorpusEntry> entries_;   // merged cache of every shard
  mutable bool entries_complete_ = false;

  const std::vector<CorpusEntry>& shard_rows(const Shard& shard) const;
};

/// Corpus::Shard is declared here (not nested-private-only) so the .cpp can
/// define it; summaries let select()/range_scan() skip whole shard files.
struct Corpus::Shard {
  std::string file;
  std::size_t entry_count = 0;
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  std::int32_t day_min = 0;
  std::int32_t day_max = 0;
  std::uint64_t op_mask = 0;   // bit per operator code seen
  std::uint64_t app_mask = 0;  // bit per (app & 63) seen
  TimeMs t0 = 0;
  TimeMs t1 = 0;
  std::size_t first_seq = 0;
  mutable bool loaded = false;
  mutable std::vector<CorpusEntry> rows;
};

}  // namespace ltefp::tracestore
