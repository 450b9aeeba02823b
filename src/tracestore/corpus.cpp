#include "tracestore/corpus.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/csv.hpp"
#include "common/parallel.hpp"

namespace fs = std::filesystem;

namespace ltefp::tracestore {
namespace {

constexpr const char* kManifestName = "manifest.csv";

// Shard file: one row per trace.
const std::vector<std::string> kShardHeader = {
    "seq", "file", "op", "app", "label", "day", "seed", "cell",
    "session_start_ms", "records", "bytes", "t0_ms", "t1_ms"};

// Root manifest: one summary row per shard file.
const std::vector<std::string> kShardIndexHeader = {
    "shard", "file", "entries", "records", "bytes", "day_min", "day_max",
    "op_mask", "app_mask", "t0_ms", "t1_ms"};

std::uint64_t parse_u64(const std::string& cell, const char* field, std::size_t row) {
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(cell.data(), cell.data() + cell.size(), value);
  if (ec != std::errc{} || ptr != cell.data() + cell.size()) {
    throw TraceStoreError("manifest row " + std::to_string(row) + ": field '" + field +
                          "' is not a number: '" + cell + "'");
  }
  return value;
}

std::int64_t parse_i64(const std::string& cell, const char* field, std::size_t row) {
  std::int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(cell.data(), cell.data() + cell.size(), value);
  if (ec != std::errc{} || ptr != cell.data() + cell.size()) {
    throw TraceStoreError("manifest row " + std::to_string(row) + ": field '" + field +
                          "' is not a number: '" + cell + "'");
  }
  return value;
}

/// Manifest file names are untrusted: only a bare name inside the corpus
/// directory is accepted, never an absolute path or one that climbs out.
const std::string& bare_filename(const std::string& name, const std::string& where) {
  if (name.empty() || name == "." || name == ".." ||
      name.find_first_of(std::string("/\\\0", 3)) != std::string::npos) {
    throw TraceStoreError("corpus: " + where + ": file name '" + name +
                          "' is not a bare file name inside the corpus directory");
  }
  return name;
}

/// Parses one shard-file row.
CorpusEntry parse_entry_row(const std::vector<std::string>& row, std::size_t i) {
  CorpusEntry e;
  e.seq = parse_u64(row[0], "seq", i);
  e.file = bare_filename(row[1], "manifest row " + std::to_string(i));
  const std::uint64_t op = parse_u64(row[2], "op", i);
  if (op > static_cast<std::uint64_t>(lte::Operator::kTmobile)) {
    throw TraceStoreError("corpus: manifest row " + std::to_string(i) +
                          ": unknown operator code " + row[2]);
  }
  e.meta.op = static_cast<lte::Operator>(op);
  e.meta.app = static_cast<std::uint16_t>(parse_u64(row[3], "app", i));
  e.meta.label = row[4];
  e.meta.day = static_cast<std::int32_t>(parse_i64(row[5], "day", i));
  e.meta.seed = parse_u64(row[6], "seed", i);
  e.meta.cell = static_cast<lte::CellId>(parse_u64(row[7], "cell", i));
  e.meta.session_start = parse_i64(row[8], "session_start_ms", i);
  e.records = parse_u64(row[9], "records", i);
  e.bytes = parse_u64(row[10], "bytes", i);
  e.t0_ms = parse_i64(row[11], "t0_ms", i);
  e.t1_ms = parse_i64(row[12], "t1_ms", i);
  return e;
}

std::vector<std::string> entry_row(const CorpusEntry& e) {
  return {std::to_string(e.seq),
          e.file,
          std::to_string(static_cast<int>(e.meta.op)),
          std::to_string(e.meta.app),
          e.meta.label,
          std::to_string(e.meta.day),
          std::to_string(e.meta.seed),
          std::to_string(e.meta.cell),
          std::to_string(e.meta.session_start),
          std::to_string(e.records),
          std::to_string(e.bytes),
          std::to_string(e.t0_ms),
          std::to_string(e.t1_ms)};
}

std::vector<std::vector<std::string>> read_csv_file(const fs::path& path, const char* what) {
  std::ifstream in(path);
  if (!in) throw TraceStoreError(std::string("corpus: no ") + what + " at " + path.string());
  std::stringstream buffer;
  buffer << in.rdbuf();
  return parse_csv(buffer.str());
}

}  // namespace

bool CorpusFilter::matches(const TraceMeta& meta) const {
  if (app && *app != meta.app) return false;
  if (op && *op != meta.op) return false;
  if (day_min && meta.day < *day_min) return false;
  if (day_max && meta.day > *day_max) return false;
  if (cell && *cell != meta.cell) return false;
  return true;
}

CorpusWriter::CorpusWriter(std::string directory, CorpusOptions options)
    : directory_(std::move(directory)), options_(options) {
  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec) {
    throw TraceStoreError("corpus: cannot create directory " + directory_ + ": " + ec.message());
  }
}

CorpusWriter::~CorpusWriter() {
  // Best effort: an exception here would mask the original error; an
  // unfinished corpus is simply invisible to Corpus::open.
  try {
    finish();
  } catch (...) {
  }
}

const CorpusEntry& CorpusWriter::add(const TraceMeta& meta, const sniffer::Trace& trace) {
  if (finished_) throw TraceStoreError("corpus: add() after finish()");
  CorpusEntry entry;
  entry.seq = entries_.size();
  char name[32];
  std::snprintf(name, sizeof(name), "trace_%06zu.ltt", entry.seq);
  entry.file = name;
  entry.meta = meta;
  entry.records = trace.size();
  if (!trace.empty()) {
    // The writer below rejects unordered traces, so the ends are the range.
    entry.t0_ms = trace.front().time;
    entry.t1_ms = trace.back().time;
  }

  const fs::path path = fs::path(directory_) / entry.file;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw TraceStoreError("corpus: cannot write " + path.string());
  entry.bytes = write_trace(out, meta, trace, options_.trace);
  if (!out) throw TraceStoreError("corpus: write failed for " + path.string());

  entries_.push_back(std::move(entry));
  return entries_.back();
}

void CorpusWriter::finish() {
  if (finished_) return;
  const fs::path root = fs::path(directory_) / kManifestName;
  const std::size_t per_shard = options_.entries_per_shard > 0
                                    ? options_.entries_per_shard
                                    : std::max<std::size_t>(entries_.size(), 1);

  // Shard files first, then the index that makes the corpus visible — an
  // interrupted finish() leaves no manifest.csv.
  struct Summary {
    std::string file;
    std::size_t entry_count = 0;
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
    std::int32_t day_min = 0;
    std::int32_t day_max = 0;
    std::uint64_t op_mask = 0;
    std::uint64_t app_mask = 0;
    TimeMs t0 = 0;
    TimeMs t1 = 0;
  };
  std::vector<Summary> summaries;
  for (std::size_t begin = 0; begin < entries_.size() || summaries.empty();
       begin += per_shard) {
    const std::size_t end = std::min(entries_.size(), begin + per_shard);
    Summary s;
    char name[32];
    std::snprintf(name, sizeof(name), "manifest_%04zu.csv", summaries.size());
    s.file = name;
    const fs::path shard_path = fs::path(directory_) / s.file;
    std::ofstream out(shard_path, std::ios::trunc);
    if (!out) throw TraceStoreError("corpus: cannot write " + shard_path.string());
    CsvWriter csv(out);
    csv.write_row(kShardHeader);
    for (std::size_t i = begin; i < end; ++i) {
      const CorpusEntry& e = entries_[i];
      csv.write_row(entry_row(e));
      if (s.entry_count == 0) {
        s.day_min = s.day_max = e.meta.day;
        s.t0 = e.t0_ms;
        s.t1 = e.t1_ms;
      } else {
        s.day_min = std::min(s.day_min, e.meta.day);
        s.day_max = std::max(s.day_max, e.meta.day);
        s.t0 = std::min(s.t0, e.t0_ms);
        s.t1 = std::max(s.t1, e.t1_ms);
      }
      ++s.entry_count;
      s.records += e.records;
      s.bytes += e.bytes;
      s.op_mask |= std::uint64_t{1} << (static_cast<unsigned>(e.meta.op) & 63);
      s.app_mask |= std::uint64_t{1} << (e.meta.app & 63);
    }
    out.flush();
    if (!out) throw TraceStoreError("corpus: shard write failed for " + shard_path.string());
    summaries.push_back(std::move(s));
    if (entries_.empty()) break;  // single empty shard, keep the loop finite
  }

  std::ofstream out(root, std::ios::trunc);
  if (!out) throw TraceStoreError("corpus: cannot write " + root.string());
  CsvWriter csv(out);
  csv.write_row(kShardIndexHeader);
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    const Summary& s = summaries[i];
    csv.write_row({std::to_string(i), s.file, std::to_string(s.entry_count),
                   std::to_string(s.records), std::to_string(s.bytes),
                   std::to_string(s.day_min), std::to_string(s.day_max),
                   std::to_string(s.op_mask), std::to_string(s.app_mask), std::to_string(s.t0),
                   std::to_string(s.t1)});
  }
  out.flush();
  if (!out) throw TraceStoreError("corpus: manifest write failed for " + root.string());
  finished_ = true;
}

std::size_t CorpusWriter::total_bytes() const {
  std::size_t sum = 0;
  for (const auto& e : entries_) sum += e.bytes;
  return sum;
}

bool Corpus::exists(const std::string& directory) {
  std::error_code ec;
  return fs::is_regular_file(fs::path(directory) / kManifestName, ec);
}

Corpus Corpus::open(const std::string& directory) {
  const fs::path path = fs::path(directory) / kManifestName;
  const auto rows = read_csv_file(path, "manifest");
  if (rows.empty() || rows[0] != kShardIndexHeader) {
    throw TraceStoreError("corpus: malformed manifest header in " + path.string());
  }

  Corpus corpus;
  corpus.directory_ = directory;
  std::size_t next_seq = 0;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const auto& row = rows[i];
    if (row.size() != kShardIndexHeader.size()) {
      throw TraceStoreError("corpus: shard index row " + std::to_string(i) + " has " +
                            std::to_string(row.size()) + " fields, expected " +
                            std::to_string(kShardIndexHeader.size()));
    }
    if (parse_u64(row[0], "shard", i) != i - 1) {
      throw TraceStoreError("corpus: shard index row " + std::to_string(i) + " out of order");
    }
    Shard s;
    s.file = bare_filename(row[1], "shard index row " + std::to_string(i));
    s.entry_count = parse_u64(row[2], "entries", i);
    s.records = parse_u64(row[3], "records", i);
    s.bytes = parse_u64(row[4], "bytes", i);
    s.day_min = static_cast<std::int32_t>(parse_i64(row[5], "day_min", i));
    s.day_max = static_cast<std::int32_t>(parse_i64(row[6], "day_max", i));
    s.op_mask = parse_u64(row[7], "op_mask", i);
    s.app_mask = parse_u64(row[8], "app_mask", i);
    s.t0 = parse_i64(row[9], "t0_ms", i);
    s.t1 = parse_i64(row[10], "t1_ms", i);
    s.first_seq = next_seq;
    next_seq += s.entry_count;
    corpus.shards_.push_back(std::move(s));
  }
  return corpus;
}

const std::vector<CorpusEntry>& Corpus::shard_rows(const Shard& shard) const {
  if (!shard.loaded) {
    const fs::path path = fs::path(directory_) / shard.file;
    const auto rows = read_csv_file(path, "manifest shard");
    if (rows.empty() || rows[0] != kShardHeader) {
      throw TraceStoreError("corpus: malformed shard header in " + path.string());
    }
    std::vector<CorpusEntry> parsed;
    parsed.reserve(rows.size() - 1);
    for (std::size_t i = 1; i < rows.size(); ++i) {
      if (rows[i].size() != kShardHeader.size()) {
        throw TraceStoreError("corpus: shard row " + std::to_string(i) + " in " + path.string() +
                              " has " + std::to_string(rows[i].size()) + " fields, expected " +
                              std::to_string(kShardHeader.size()));
      }
      parsed.push_back(parse_entry_row(rows[i], i));
    }
    if (parsed.size() != shard.entry_count) {
      throw TraceStoreError("corpus: " + shard.file + " holds " +
                            std::to_string(parsed.size()) + " entries, index declares " +
                            std::to_string(shard.entry_count));
    }
    for (std::size_t k = 0; k < parsed.size(); ++k) {
      if (parsed[k].seq != shard.first_seq + k) {
        throw TraceStoreError("corpus: " + shard.file + " row " + std::to_string(k + 1) +
                              ": seq " + std::to_string(parsed[k].seq) + ", expected " +
                              std::to_string(shard.first_seq + k));
      }
    }
    shard.rows = std::move(parsed);
    shard.loaded = true;
  }
  return shard.rows;
}

const std::vector<CorpusEntry>& Corpus::entries() const {
  if (!entries_complete_) {
    entries_.clear();
    for (const Shard& s : shards_) {
      const auto& rows = shard_rows(s);
      entries_.insert(entries_.end(), rows.begin(), rows.end());
    }
    entries_complete_ = true;
  }
  return entries_;
}

namespace {

bool shard_may_match(const Corpus::Shard& s, const CorpusFilter& filter) {
  if (s.entry_count == 0) return false;
  if (filter.app && ((s.app_mask >> (*filter.app & 63)) & 1) == 0) return false;
  if (filter.op &&
      ((s.op_mask >> (static_cast<unsigned>(*filter.op) & 63)) & 1) == 0) {
    return false;
  }
  if (filter.day_min && s.day_max < *filter.day_min) return false;
  if (filter.day_max && s.day_min > *filter.day_max) return false;
  return true;
}

}  // namespace

std::vector<CorpusEntry> Corpus::select(const CorpusFilter& filter) const {
  std::vector<CorpusEntry> out;
  for (const Shard& s : shards_) {
    if (!shard_may_match(s, filter)) continue;
    for (const CorpusEntry& e : shard_rows(s)) {
      if (filter.matches(e.meta)) out.push_back(e);
    }
  }
  return out;
}

namespace {

/// Maps an entry's .ltt file and checks it against its manifest row: the
/// embedded metadata must equal the row's, and the file must declare the
/// row's record count (every chunk decode then holds the file to it).
MappedReader open_checked(const std::string& directory, const CorpusEntry& entry) {
  MappedReader reader((fs::path(directory) / entry.file).string());
  if (reader.meta() != entry.meta) {
    throw TraceStoreError("corpus: " + entry.file +
                          ": embedded metadata disagrees with manifest row " +
                          std::to_string(entry.seq));
  }
  if (reader.declared_records() != entry.records) {
    throw TraceStoreError("corpus: " + entry.file + ": manifest declares " +
                          std::to_string(entry.records) + " records, file holds " +
                          std::to_string(reader.declared_records()));
  }
  return reader;
}

/// The one way a corpus entry is read: opens it checked, then drains a
/// cursor over [q.t0, q.t1] (and q.rnti). Adds the file and its chunk
/// counts to `stats`.
sniffer::Trace read_entry(const std::string& directory, const CorpusEntry& entry,
                          const RangeQuery& q, RangeScanStats& stats) {
  const MappedReader reader = open_checked(directory, entry);
  MappedReader::Cursor cursor = reader.cursor(q.t0, q.t1, q.rnti);
  sniffer::Trace trace;
  cursor.drain(trace);
  ++stats.files_opened;
  stats.chunks_decoded += cursor.chunks_decoded();
  stats.chunks_skipped += cursor.chunks_skipped();
  stats.records_out += trace.size();
  return trace;
}

}  // namespace

MappedReader Corpus::open_entry(const CorpusEntry& entry) const {
  return open_checked(directory_, entry);
}

sniffer::Trace Corpus::load(const CorpusEntry& entry) const {
  RangeScanStats unused;
  return read_entry(directory_, entry, RangeQuery{}, unused);
}

std::vector<Corpus::LoadedTrace> Corpus::load_all(const CorpusFilter& filter) const {
  const std::vector<CorpusEntry> selected = select(filter);
  return parallel_map(selected.size(), [&](std::size_t i) {
    return LoadedTrace{selected[i], load(selected[i])};
  });
}

std::vector<Corpus::LoadedTrace> Corpus::range_scan(const RangeQuery& q,
                                                    RangeScanStats* stats) const {
  RangeScanStats local;
  local.shards_total = shards_.size();
  std::vector<CorpusEntry> cands;
  for (const Shard& s : shards_) {
    const bool time_overlaps = s.records == 0 || (s.t1 >= q.t0 && s.t0 <= q.t1);
    if (!shard_may_match(s, q.filter) || !time_overlaps) {
      ++local.shards_pruned;
      continue;
    }
    for (const CorpusEntry& e : shard_rows(s)) {
      ++local.entries_considered;
      if (q.filter.matches(e.meta) && e.records > 0 && e.t1_ms >= q.t0 && e.t0_ms <= q.t1) {
        cands.push_back(e);
      } else {
        ++local.entries_pruned;
      }
    }
  }

  // Each task owns its mapping, output slot and stats slot.
  std::vector<RangeScanStats> per_entry(cands.size());
  std::vector<LoadedTrace> sliced = parallel_map(cands.size(), [&](std::size_t i) {
    return LoadedTrace{cands[i], read_entry(directory_, cands[i], q, per_entry[i])};
  });

  std::vector<LoadedTrace> out;
  for (std::size_t i = 0; i < sliced.size(); ++i) {
    local.files_opened += per_entry[i].files_opened;
    local.chunks_decoded += per_entry[i].chunks_decoded;
    local.chunks_skipped += per_entry[i].chunks_skipped;
    local.records_out += per_entry[i].records_out;
    if (!sliced[i].trace.empty()) out.push_back(std::move(sliced[i]));
  }
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace ltefp::tracestore
