#include "tracestore/mapped_reader.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "lte/crc.hpp"
#include "tracestore/block.hpp"
#include "tracestore/mmap_file.hpp"
#include "tracestore/record_codec.hpp"
#include "tracestore/varint.hpp"

namespace ltefp::tracestore {
namespace {

/// One CRC-verified chunk frame, borrowed from the mapped image.
struct Frame {
  std::uint8_t kind = 0;
  std::span<const std::uint8_t> payload;
  std::size_t end = 0;  // absolute offset just past the CRC
};

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Total framed size of a chunk: kind byte + length varint + payload + CRC.
std::uint64_t frame_size(std::uint64_t payload_len) {
  return 1 + varint_size(payload_len) + payload_len + 2;
}

}  // namespace

struct MappedReader::Impl {
  MappedFile file;  // unused (empty) when constructed over a caller span
  std::span<const std::uint8_t> image;
  std::string context;

  std::uint8_t flags = 0;
  TraceMeta meta;
  std::uint64_t declared_records = 0;
  std::vector<ChunkInfo> chunks;
  std::size_t body_begin = 0;  // just past the metadata chunk
  std::size_t dir_offset = 0;  // offset of the 'D' frame

  [[noreturn]] void fail(const std::string& what) const {
    throw TraceStoreError(context + ": " + what);
  }

  /// Parses and CRC-verifies the chunk frame at `offset`, confined to
  /// image[offset, limit). All bounds come from ByteReader, so a forged
  /// length can never form a span past the mapping.
  Frame parse_frame(std::size_t offset, std::size_t limit, const std::string& what) const {
    if (offset >= limit) fail("truncated " + what);
    ByteReader r(image.subspan(offset, limit - offset), context + ": " + what);
    Frame f;
    f.kind = r.get_u8();
    const std::uint64_t len = r.get_varint();
    if (len > kMaxChunkPayload) {
      r.fail("implausible payload length " + std::to_string(len));
    }
    f.payload = r.get_span(len, "chunk payload");
    const std::uint8_t lo = r.get_u8();
    const std::uint8_t hi = r.get_u8();
    const std::uint16_t stored = static_cast<std::uint16_t>(lo | (hi << 8));
    const std::uint16_t computed = lte::crc16(f.payload);
    if (stored != computed) {
      r.fail("CRC mismatch (stored " + std::to_string(stored) + ", computed " +
             std::to_string(computed) + ")");
    }
    f.end = offset + r.pos();
    return f;
  }

  void open() {
    if (image.size() < sizeof(kMagic) ||
        !std::equal(std::begin(kMagic), std::end(kMagic),
                    reinterpret_cast<const char*>(image.data()))) {
      fail("bad magic (not an LTT trace file)");
    }
    if (image.size() < kHeaderSizeV2) fail("truncated header");
    const std::uint8_t version = image[sizeof(kMagic)];
    if (version != kFormatVersionV2) {
      fail("unsupported format version " + std::to_string(version) + " (supported: " +
           std::to_string(kFormatVersionV2) + ")");
    }
    flags = image[sizeof(kMagic) + 1];
    if ((flags & ~kKnownV2Flags) != 0) {
      fail("unknown format flags " + std::to_string(flags));
    }
    if (image.size() < kHeaderSizeV2 + kTrailerSize) {
      fail("truncated file (no room for the trailer)");
    }
    const std::size_t trailer_at = image.size() - kTrailerSize;

    // Trailer: dir_offset u64 LE, CRC16 over those 8 bytes, magic.
    const std::span<const std::uint8_t> trailer = image.subspan(trailer_at, kTrailerSize);
    if (!std::equal(std::begin(kTrailerMagic), std::end(kTrailerMagic),
                    reinterpret_cast<const char*>(trailer.data() + 10))) {
      fail("missing trailer magic (file truncated?)");
    }
    const std::uint16_t stored_crc =
        static_cast<std::uint16_t>(trailer[8] | (trailer[9] << 8));
    const std::uint16_t computed_crc = lte::crc16(trailer.first(8));
    if (stored_crc != computed_crc) fail("trailer CRC mismatch");
    std::uint64_t dir_off = 0;
    for (int i = 0; i < 8; ++i) dir_off |= static_cast<std::uint64_t>(trailer[i]) << (8 * i);
    if (dir_off < kHeaderSizeV2 || dir_off >= trailer_at) {
      fail("directory offset " + std::to_string(dir_off) + " out of range");
    }
    dir_offset = static_cast<std::size_t>(dir_off);

    // Metadata chunk directly after the header.
    const Frame meta_frame = parse_frame(kHeaderSizeV2, trailer_at, "metadata chunk");
    if (meta_frame.kind != kChunkMeta) fail("first chunk must be metadata");
    ByteReader mr(meta_frame.payload, context + ": metadata chunk");
    meta = decode_meta(mr);
    body_begin = meta_frame.end;
    if (dir_offset < body_begin) fail("directory offset inside the metadata chunk");

    // Directory frame must span exactly [dir_offset, trailer).
    const Frame dir = parse_frame(dir_offset, trailer_at, "directory chunk");
    if (dir.kind != kChunkDirectory) {
      fail("directory offset does not point at a 'D' chunk");
    }
    if (dir.end != trailer_at) fail("directory frame does not end at the trailer");

    ByteReader dr(dir.payload, context + ": chunk directory");
    const std::uint64_t count = dr.get_varint();
    // Every directory entry occupies at least kMinDirEntryBytes, so the
    // payload caps the entry count; a forged count must not size the
    // reserve() below (the tainted-alloc contract, see format.hpp).
    if (count > dir.payload.size() / kMinDirEntryBytes) {
      dr.fail("directory entry count " + std::to_string(count) + " exceeds payload capacity " +
              std::to_string(dir.payload.size() / kMinDirEntryBytes));
    }
    chunks.clear();
    chunks.reserve(count);
    std::uint64_t prev_offset = 0;
    std::uint64_t expected_offset = body_begin;
    std::uint64_t record_sum = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      ChunkInfo c;
      c.offset = prev_offset + dr.get_varint();  // unsigned wrap → contiguity check fails
      prev_offset = c.offset;
      c.payload_len = dr.get_varint();
      if (c.payload_len > kMaxChunkPayload) {
        dr.fail("entry " + std::to_string(i) + ": implausible payload length " +
                std::to_string(c.payload_len));
      }
      // Chunks must tile the body contiguously: entry 0 starts right after
      // the metadata chunk, each next entry right after the previous frame,
      // and (checked below) the end chunk right after the last. A forged
      // offset — overlapping, out of range, or hiding unlisted bytes —
      // breaks the tiling and is rejected here, before any chunk is read.
      if (c.offset != expected_offset) {
        dr.fail("entry " + std::to_string(i) + ": offset " + std::to_string(c.offset) +
                " does not follow the previous chunk (expected " +
                std::to_string(expected_offset) + ")");
      }
      expected_offset = c.offset + frame_size(c.payload_len);
      if (expected_offset > dir_offset) {
        dr.fail("entry " + std::to_string(i) + ": chunk overruns the directory");
      }
      c.records = dr.get_varint();
      if (c.records == 0) dr.fail("entry " + std::to_string(i) + ": zero records");
      if (c.records > kMaxRecordsPerChunk) {
        dr.fail("entry " + std::to_string(i) + ": record count " + std::to_string(c.records) +
                " exceeds chunk capacity " + std::to_string(kMaxRecordsPerChunk));
      }
      record_sum += c.records;
      c.time_min = static_cast<TimeMs>(dr.get_signed());
      const std::uint64_t span = dr.get_varint();
      if (span > std::uint64_t{1} << 46) {  // ~2200 years in ms
        dr.fail("entry " + std::to_string(i) + ": implausible time span");
      }
      c.time_max = c.time_min + static_cast<TimeMs>(span);
      c.rnti_bloom = dr.get_u64_le();
      // Records are time-ordered, so consecutive chunks' ranges may touch
      // but never step back; the cursor's binary search relies on it.
      if (!chunks.empty() && c.time_min < chunks.back().time_max) {
        dr.fail("entry " + std::to_string(i) + ": time range starts at " +
                std::to_string(c.time_min) + " ms, before the previous chunk ends at " +
                std::to_string(chunks.back().time_max) + " ms");
      }
      chunks.push_back(c);
    }
    if (!dr.at_end()) {
      dr.fail(std::to_string(dr.remaining()) + " trailing bytes after last entry");
    }

    // End chunk: fills the gap between the last record chunk (or the
    // metadata chunk) and the directory, exactly.
    const std::size_t end_at = static_cast<std::size_t>(expected_offset);
    const Frame end = parse_frame(end_at, dir_offset, "end chunk");
    if (end.kind != kChunkEnd) fail("missing end chunk before the directory");
    if (end.end != dir_offset) fail("unexpected data between end chunk and directory");
    ByteReader er(end.payload, context + ": end chunk");
    declared_records = er.get_varint();
    if (!er.at_end()) er.fail("trailing bytes");
    if (declared_records != record_sum) {
      fail("record count mismatch (end chunk declares " + std::to_string(declared_records) +
           ", directory sums to " + std::to_string(record_sum) + ")");
    }
  }

  /// Decodes record chunk `index` straight out of the mapping, re-verifying
  /// the frame against the directory's claims and the directory entry
  /// against the decoded records.
  std::vector<sniffer::TraceRecord> decode_chunk(std::size_t index) const {
    const ChunkInfo& info = chunks[index];
    const std::string where = "record chunk " + std::to_string(index);
    const Frame f = parse_frame(static_cast<std::size_t>(info.offset), dir_offset, where);
    if (f.kind == kChunkCompressed && (flags & kFlagCompressed) == 0) {
      fail(where + ": compressed chunk in a file without the compression flag");
    }
    if (f.kind != kChunkRecords && f.kind != kChunkCompressed) {
      fail(where + ": unexpected chunk kind " + std::to_string(f.kind));
    }
    if (f.payload.size() != info.payload_len) {
      fail(where + ": payload length disagrees with directory (chunk has " +
           std::to_string(f.payload.size()) + ", directory says " +
           std::to_string(info.payload_len) + ")");
    }

    std::vector<std::uint8_t> raw_storage;
    std::span<const std::uint8_t> raw = f.payload;
    if (f.kind == kChunkCompressed) {
      ByteReader zr(f.payload, context + ": " + where);
      const std::uint64_t raw_len = zr.get_varint();
      if (raw_len > kMaxChunkPayload) {
        zr.fail("declared uncompressed size " + std::to_string(raw_len) +
                " exceeds the chunk payload cap");
      }
      raw_storage = block_decompress(zr.get_span(zr.remaining(), "compressed body"), raw_len,
                                     context + ": " + where);
      raw = raw_storage;
    }

    ByteReader r(raw, context + ": " + where);
    const std::uint64_t rec_count = r.get_varint();
    if (rec_count == 0) r.fail("empty records chunk");
    // The payload caps the record count before it drives the reserve()
    // (see format.hpp).
    if (rec_count > raw.size() / kMinRecordBytes) {
      r.fail("record count " + std::to_string(rec_count) + " exceeds chunk capacity " +
             std::to_string(raw.size() / kMinRecordBytes));
    }
    if (rec_count != info.records) {
      r.fail("record count disagrees with directory (chunk has " + std::to_string(rec_count) +
             ", directory says " + std::to_string(info.records) + ")");
    }
    std::vector<sniffer::TraceRecord> out;
    out.reserve(rec_count);
    RecordDecodeState state;  // chunks are self-contained
    decode_records(r, state, rec_count, out);
    if (!r.at_end()) {
      r.fail(std::to_string(r.remaining()) + " trailing bytes after last record");
    }

    // The directory's seek stats must reproduce from the records: a forged
    // entry that survived pruning is still caught the moment it's decoded.
    std::uint64_t bloom = 0;
    for (std::size_t k = 0; k < out.size(); ++k) {
      if (k > 0 && out[k].time < out[k - 1].time) {
        r.fail("record " + std::to_string(k) + " at " + std::to_string(out[k].time) +
               " ms precedes its predecessor at " + std::to_string(out[k - 1].time) + " ms");
      }
      bloom |= rnti_bloom_mask(out[k].rnti);
    }
    if (out.front().time != info.time_min || out.back().time != info.time_max) {
      r.fail("chunk time range disagrees with directory");
    }
    if (bloom != info.rnti_bloom) {
      r.fail("chunk RNTI bloom disagrees with directory");
    }
    return out;
  }
};

MappedReader::MappedReader(const std::string& path) : impl_(std::make_unique<Impl>()) {
  impl_->file = MappedFile(path);
  impl_->image = impl_->file.bytes();
  impl_->context = path;
  impl_->open();
}

MappedReader::MappedReader(std::span<const std::uint8_t> image, std::string context)
    : impl_(std::make_unique<Impl>()) {
  impl_->image = image;
  impl_->context = std::move(context);
  impl_->open();
}

MappedReader::~MappedReader() = default;
MappedReader::MappedReader(MappedReader&&) noexcept = default;
MappedReader& MappedReader::operator=(MappedReader&&) noexcept = default;

const TraceMeta& MappedReader::meta() const { return impl_->meta; }
bool MappedReader::compressed() const { return (impl_->flags & kFlagCompressed) != 0; }
std::uint64_t MappedReader::declared_records() const { return impl_->declared_records; }
const std::vector<ChunkInfo>& MappedReader::chunks() const { return impl_->chunks; }

sniffer::Trace MappedReader::read_all() const {
  sniffer::Trace trace;
  cursor().drain(trace);
  return trace;
}

struct MappedReader::Cursor::State {
  const Impl* impl = nullptr;
  TimeMs t0 = 0;
  TimeMs t1 = 0;
  std::optional<lte::Rnti> rnti;
  std::size_t chunk_index = 0;  // next directory entry to consider
  std::vector<sniffer::TraceRecord> pending;
  std::size_t pending_pos = 0;
  std::size_t decoded = 0;
  std::size_t skipped = 0;

  bool keep(const sniffer::TraceRecord& rec) const {
    return rec.time >= t0 && rec.time <= t1 && (!rnti.has_value() || rec.rnti == *rnti);
  }

  /// Decodes the next chunk that can hold a match into `pending`; false
  /// once no chunk is left before t1.
  bool load_next_chunk() {
    const std::vector<ChunkInfo>& chunks = impl->chunks;
    for (; chunk_index < chunks.size(); ++chunk_index) {
      const ChunkInfo& c = chunks[chunk_index];
      if (c.time_min > t1) break;
      if (rnti.has_value() && !rnti_bloom_may_contain(c.rnti_bloom, *rnti)) {
        ++skipped;
        continue;
      }
      // Assigned only once the chunk passed its checks, so a cursor that
      // threw never yields a record of the rejected chunk.
      pending = impl->decode_chunk(chunk_index++);
      pending_pos = 0;
      ++decoded;
      return true;
    }
    skipped += chunks.size() - chunk_index;
    chunk_index = chunks.size();
    return false;
  }
};

MappedReader::Cursor::Cursor(std::unique_ptr<State> state) : state_(std::move(state)) {}
MappedReader::Cursor::~Cursor() = default;
MappedReader::Cursor::Cursor(Cursor&&) noexcept = default;
MappedReader::Cursor& MappedReader::Cursor::operator=(Cursor&&) noexcept = default;

bool MappedReader::Cursor::next(sniffer::TraceRecord& record) {
  State& st = *state_;
  for (;;) {
    while (st.pending_pos < st.pending.size()) {
      const sniffer::TraceRecord& rec = st.pending[st.pending_pos++];
      if (st.keep(rec)) {
        record = rec;
        return true;
      }
    }
    if (!st.load_next_chunk()) return false;
  }
}

void MappedReader::Cursor::drain(sniffer::Trace& out) {
  State& st = *state_;
  do {
    const auto first = st.pending.begin() + static_cast<std::ptrdiff_t>(st.pending_pos);
    // A decoded chunk is time-ordered, so with no RNTI filter it is kept
    // whole when its first and last remaining records are: one append.
    if (!st.rnti.has_value() && first != st.pending.end() && st.keep(*first) &&
        st.keep(st.pending.back())) {
      out.insert(out.end(), first, st.pending.end());
    } else {
      std::copy_if(first, st.pending.end(), std::back_inserter(out),
                   [&st](const sniffer::TraceRecord& rec) { return st.keep(rec); });
    }
    st.pending_pos = st.pending.size();
  } while (st.load_next_chunk());
}

std::size_t MappedReader::Cursor::chunks_decoded() const { return state_->decoded; }
std::size_t MappedReader::Cursor::chunks_skipped() const { return state_->skipped; }

MappedReader::Cursor MappedReader::cursor(TimeMs t0, TimeMs t1,
                                          std::optional<lte::Rnti> rnti) const {
  auto state = std::make_unique<Cursor::State>();
  state->impl = impl_.get();
  state->t0 = t0;
  state->t1 = t1;
  state->rnti = rnti;
  // The directory is time-ordered (checked at open): binary-search the
  // first chunk that can intersect [t0, t1]; every chunk before it is
  // skipped unread.
  const std::vector<ChunkInfo>& chunks = impl_->chunks;
  state->chunk_index = static_cast<std::size_t>(
      std::lower_bound(chunks.begin(), chunks.end(), t0,
                       [](const ChunkInfo& c, TimeMs t) { return c.time_max < t; }) -
      chunks.begin());
  state->skipped = state->chunk_index;
  return Cursor(std::move(state));
}

}  // namespace ltefp::tracestore
