// Tracestore: memory-mapped readers, chunk directories, block compression,
// sharded corpora, range scans and the synth generator.
//
// The load-bearing contracts pinned here:
//  - round trip: MappedReader (read_all, cursor) decodes exactly the
//    records the Writer was given, plain or compressed;
//  - hardening: every single-byte flip, truncation and forged-directory
//    image is rejected with a TraceStoreError, never an OOB read or a
//    giant allocation;
//  - pruning is EXACT: ranged cursors and range_scan() yield the
//    brute-force filtered full decode while their counts prove
//    chunks/entries/shards were actually skipped.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "lte/crc.hpp"
#include "tracestore/block.hpp"
#include "tracestore/corpus.hpp"
#include "tracestore/mapped_reader.hpp"
#include "tracestore/mmap_file.hpp"
#include "tracestore/record_codec.hpp"
#include "tracestore/synth.hpp"
#include "tracestore/varint.hpp"
#include "tracestore/writer.hpp"
#include "v2_image_builder.hpp"

namespace ltefp::tracestore {
namespace {

using namespace test_images;

TraceMeta sample_meta() {
  TraceMeta meta;
  meta.op = lte::Operator::kTmobile;
  meta.app = 4;
  meta.label = "WhatsApp";
  meta.day = 12;
  meta.seed = 0xDEADBEEFCAFEULL;
  meta.cell = 77;
  meta.session_start = 2'000;
  return meta;
}

sniffer::Trace sample_trace() {
  return sniffer::Trace{
      {0, 0x100, lte::Direction::kDownlink, 500, 1},
      {150, 0x100, lte::Direction::kUplink, 60, 1},
      {1100, 0x4242, lte::Direction::kDownlink, 900, 1},
      {2500, 0x100, lte::Direction::kUplink, 0, 1},
      {2999, 0x200, lte::Direction::kDownlink, 300, 2},
  };
}

// Same shapes as test_tracestore.cpp: empty, random, >24h, non-monotone
// (which the writer refuses).
sniffer::Trace random_trace(Rng& rng, int shape) {
  sniffer::Trace trace;
  const std::size_t n = (shape == 0) ? 0 : static_cast<std::size_t>(rng.uniform_int(1, 400));
  TimeMs t = (shape == 3) ? 30 * kMsPerHour : 0;
  for (std::size_t i = 0; i < n; ++i) {
    sniffer::TraceRecord r;
    t += rng.uniform_int(0, 500);
    r.time = t;
    r.rnti = static_cast<lte::Rnti>(rng.uniform_int(0, 0xFFFF));
    r.direction = rng.bernoulli(0.5) ? lte::Direction::kDownlink : lte::Direction::kUplink;
    r.tb_bytes = rng.bernoulli(0.2) ? 0 : static_cast<int>(rng.uniform_int(0, 100'000));
    r.cell = static_cast<lte::CellId>(rng.uniform_int(0, 503));
    trace.push_back(r);
  }
  if (shape == 4 && trace.size() > 2) {
    std::swap(trace.front().time, trace.back().time);
  }
  return trace;
}

std::string encode(const TraceMeta& meta, const sniffer::Trace& trace, WriterOptions opts = {}) {
  std::ostringstream out;
  write_trace(out, meta, trace, opts);
  return out.str();
}

std::span<const std::uint8_t> as_span(const std::string& image) {
  return {reinterpret_cast<const std::uint8_t*>(image.data()), image.size()};
}

sniffer::Trace mapped_read_all(const std::string& image) {
  return MappedReader(as_span(image)).read_all();
}

/// Everything a cursor's next() yields until it reports the end of its
/// range (Cursor::drain is the batch form, exercised by read_all and the
/// corpus reads).
sniffer::Trace next_all(MappedReader::Cursor& cursor) {
  sniffer::Trace out;
  sniffer::TraceRecord record;
  while (cursor.next(record)) out.push_back(record);
  return out;
}

sniffer::Trace brute_filter(const sniffer::Trace& trace, TimeMs t0, TimeMs t1,
                            std::optional<lte::Rnti> rnti = std::nullopt) {
  sniffer::Trace out;
  for (const auto& r : trace) {
    if (r.time < t0 || r.time > t1) continue;
    if (rnti && r.rnti != *rnti) continue;
    out.push_back(r);
  }
  return out;
}

// A long trace whose byte stream is highly repetitive after delta coding,
// so the block compressor reliably wins and 'Z' chunks actually appear.
sniffer::Trace compressible_trace(std::size_t n) {
  sniffer::Trace trace;
  TimeMs t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t += 8;
    trace.push_back({t, static_cast<lte::Rnti>(0x100 + (i % 3)), lte::Direction::kDownlink,
                     1'500, 7});
  }
  return trace;
}

// Restores the process-wide knobs the tests below flip.
struct MmapGuard {
  ~MmapGuard() { set_mmap_enabled(true); }
};
struct ThreadGuard {
  int saved = thread_count();
  ~ThreadGuard() { set_thread_count(saved); }
};

// --- Round trips. ---

TEST(MappedV2, PlainRoundTripPreservesMetaAndRecords) {
  WriterOptions opts;
  opts.records_per_chunk = 2;
  const std::string image = encode(sample_meta(), sample_trace(), opts);
  const MappedReader reader(as_span(image));
  EXPECT_FALSE(reader.compressed());
  EXPECT_EQ(reader.meta(), sample_meta());
  EXPECT_EQ(reader.declared_records(), sample_trace().size());
  EXPECT_EQ(reader.chunks().size(), 3u);  // 5 records, 2 per chunk
  EXPECT_EQ(reader.read_all(), sample_trace());
}

TEST(MappedV2, EmptyTraceRoundTrips) {
  const std::string image = encode(sample_meta(), {});
  const MappedReader reader(as_span(image));
  EXPECT_TRUE(reader.chunks().empty());
  EXPECT_TRUE(reader.read_all().empty());
}

TEST(MappedV2, CompressedRoundTrip) {
  WriterOptions plain;
  WriterOptions zipped = plain;
  zipped.compress = true;
  const sniffer::Trace trace = compressible_trace(3'000);
  const std::string plain_image = encode(sample_meta(), trace, plain);
  const std::string zipped_image = encode(sample_meta(), trace, zipped);
  // Strictly smaller proves at least one chunk is actually stored as 'Z'
  // (a same-size file would mean the compressor never won).
  ASSERT_LT(zipped_image.size(), plain_image.size());
  const MappedReader reader(as_span(zipped_image));
  EXPECT_TRUE(reader.compressed());
  EXPECT_EQ(reader.read_all(), trace);
  EXPECT_EQ(mapped_read_all(plain_image), trace);
}

TEST(MappedV2, HandBuiltImageMatchesWriterByteForByte) {
  // The forgery harness must speak the real grammar, or its rejections
  // prove nothing: the honest build is byte-identical to Writer output.
  const sniffer::Trace trace = sample_trace();
  WriterOptions opts;
  opts.records_per_chunk = 2;
  const std::string from_writer = encode(sample_meta(), trace, opts);
  const std::vector<sniffer::Trace> chunks = {
      {trace[0], trace[1]}, {trace[2], trace[3]}, {trace[4]}};
  EXPECT_EQ(build_v2(sample_meta(), chunks), from_writer);
}

TEST(MappedV2Property, MappedAndStreamingDecodesAgreeOnBothVersions) {
  // Plain and compressed images, read whole and through a cursor, must
  // reproduce the writer's input exactly; unordered input never reaches
  // a file.
  Rng rng(77);
  for (int iter = 0; iter < 40; ++iter) {
    const int shape = iter % 5;
    const sniffer::Trace trace = random_trace(rng, shape);
    TraceMeta meta = sample_meta();
    meta.session_start = trace.empty() ? 0 : trace.front().time;
    WriterOptions plain;
    plain.records_per_chunk = static_cast<std::size_t>(rng.uniform_int(1, 64));
    WriterOptions zipped = plain;
    zipped.compress = true;

    if (shape == 4 && trace.size() > 2) {
      EXPECT_THROW(encode(meta, trace, plain), TraceStoreError) << "iter " << iter;
      continue;
    }
    const std::string image = encode(meta, trace, plain);
    const std::string image_z = encode(meta, trace, zipped);
    ASSERT_EQ(mapped_read_all(image), trace) << "plain, shape " << shape << " iter " << iter;
    ASSERT_EQ(mapped_read_all(image_z), trace) << "compressed, shape " << shape << " iter "
                                               << iter;

    for (const std::string* img : {&image, &image_z}) {
      const MappedReader reader(as_span(*img));
      EXPECT_EQ(reader.meta(), meta);
      auto cursor = reader.cursor();
      ASSERT_EQ(next_all(cursor), trace) << "cursor iter " << iter;
      EXPECT_EQ(cursor.chunks_decoded(), reader.chunks().size());
      EXPECT_EQ(cursor.chunks_skipped(), 0u);
    }
  }
}

// --- Ranged cursors: pruning must be provable AND exact. ---

TEST(MappedV2Scan, TimeSliceMatchesBruteForceAndSkipsChunks) {
  Rng rng(11);
  sniffer::Trace trace;
  TimeMs t = 0;
  for (int i = 0; i < 1'000; ++i) {
    t += rng.uniform_int(1, 20);
    trace.push_back({t, static_cast<lte::Rnti>(0x100 + (i % 5)),
                     lte::Direction::kDownlink, 100 + i, 3});
  }
  WriterOptions opts;
  opts.records_per_chunk = 64;
  const std::string image = encode(sample_meta(), trace, opts);
  const MappedReader reader(as_span(image));
  ASSERT_GT(reader.chunks().size(), 8u);

  const TimeMs mid = trace[500].time;
  for (const auto& [t0, t1] : std::vector<std::pair<TimeMs, TimeMs>>{
           {mid, mid + 100},            // narrow middle slice
           {0, trace.front().time},     // head
           {trace.back().time, t + 1},  // tail
           {t + 100, t + 200},          // past the end: empty
           {0, t}}) {                   // everything
    auto cursor = reader.cursor(t0, t1);
    EXPECT_EQ(next_all(cursor), brute_filter(trace, t0, t1));
    EXPECT_EQ(cursor.chunks_decoded() + cursor.chunks_skipped(), reader.chunks().size());
    // drain() after one next() yields the rest, also from inside a chunk.
    auto batch = reader.cursor(t0, t1);
    sniffer::Trace drained(1);
    if (!batch.next(drained.front())) drained.clear();
    batch.drain(drained);
    EXPECT_EQ(drained, brute_filter(trace, t0, t1));
    EXPECT_EQ(batch.chunks_decoded(), cursor.chunks_decoded());
    EXPECT_EQ(batch.chunks_skipped(), cursor.chunks_skipped());
  }

  auto narrow = reader.cursor(mid, mid + 100);
  next_all(narrow);
  EXPECT_GT(narrow.chunks_skipped(), 0u) << "narrow slice decoded every chunk";
  EXPECT_LT(narrow.chunks_decoded(), reader.chunks().size() / 2);
}

TEST(MappedV2Scan, RntiBloomPrunesForeignChunks) {
  // Chunk i holds only RNTI 0x100 + i, so a single-RNTI scan can prune
  // every other chunk via the directory blooms alone.
  sniffer::Trace trace;
  for (int chunk = 0; chunk < 6; ++chunk) {
    for (int i = 0; i < 16; ++i) {
      trace.push_back({static_cast<TimeMs>(chunk * 1'000 + i * 10),
                       static_cast<lte::Rnti>(0x100 + chunk), lte::Direction::kUplink, 64, 1});
    }
  }
  WriterOptions opts;
  opts.records_per_chunk = 16;
  const std::string image = encode(sample_meta(), trace, opts);
  const MappedReader reader(as_span(image));
  ASSERT_EQ(reader.chunks().size(), 6u);

  const lte::Rnti target = 0x103;
  auto cursor = reader.cursor(0, 1'000'000, target);
  const sniffer::Trace hits = next_all(cursor);
  EXPECT_EQ(hits, brute_filter(trace, 0, 1'000'000, target));
  EXPECT_EQ(hits.size(), 16u);
  EXPECT_GE(cursor.chunks_skipped(), 4u) << "blooms pruned nothing";
  EXPECT_LE(cursor.chunks_decoded(), 2u);
  EXPECT_EQ(cursor.chunks_decoded() + cursor.chunks_skipped(), reader.chunks().size());
  sniffer::Trace drained;
  reader.cursor(0, 1'000'000, target).drain(drained);
  EXPECT_EQ(drained, hits);
}

// --- Corruption: flips, truncations, unknown flags. ---

TEST(MappedV2Corruption, EveryByteFlipOnCompressedFileIsRejected) {
  WriterOptions opts;
  opts.compress = true;
  opts.records_per_chunk = 64;
  const std::string image = encode(sample_meta(), compressible_trace(200), opts);
  for (std::size_t pos = 0; pos < image.size(); ++pos) {
    for (const std::uint8_t flip : {0x01, 0x80}) {
      std::string bad = image;
      bad[pos] = static_cast<char>(static_cast<std::uint8_t>(bad[pos]) ^ flip);
      EXPECT_THROW(mapped_read_all(bad), TraceStoreError)
          << "flip 0x" << std::hex << int(flip) << " at byte " << std::dec << pos
          << " was not detected";
    }
  }
}

TEST(MappedV2Corruption, EveryByteFlipOnPlainFileIsRejectedOrHarmless) {
  WriterOptions opts;
  opts.records_per_chunk = 2;
  const std::string image = encode(sample_meta(), sample_trace(), opts);
  const std::size_t flags_pos = kHeaderSizeV2 - 1;
  for (std::size_t pos = 0; pos < image.size(); ++pos) {
    for (const std::uint8_t flip : {0x01, 0x80}) {
      std::string bad = image;
      bad[pos] = static_cast<char>(static_cast<std::uint8_t>(bad[pos]) ^ flip);
      if (pos == flags_pos && flip == kFlagCompressed) {
        // The one benign flip: setting the compression flag on a file with
        // no 'Z' chunks only announces a capability; the decode must still
        // be exact.
        EXPECT_EQ(mapped_read_all(bad), sample_trace());
        continue;
      }
      EXPECT_THROW(mapped_read_all(bad), TraceStoreError)
          << "flip 0x" << std::hex << int(flip) << " at byte " << std::dec << pos
          << " was not detected";
    }
  }
}

TEST(MappedV2Corruption, EveryTruncationIsRejected) {
  WriterOptions opts;
  opts.records_per_chunk = 2;
  const std::string image = encode(sample_meta(), sample_trace(), opts);
  for (std::size_t len = 0; len < image.size(); ++len) {
    EXPECT_THROW(mapped_read_all(image.substr(0, len)), TraceStoreError)
        << "truncation to " << len << " of " << image.size() << " bytes was not detected";
  }
}

TEST(MappedV2Corruption, TrailingGarbageIsRejected) {
  WriterOptions opts;
  const std::string image = encode(sample_meta(), sample_trace(), opts);
  EXPECT_THROW(mapped_read_all(image + "x"), TraceStoreError);
}

TEST(MappedV2Corruption, UnknownFlagBitsAreRejected) {
  WriterOptions opts;
  std::string image = encode(sample_meta(), sample_trace(), opts);
  image[kHeaderSizeV2 - 1] = static_cast<char>(0x02);
  try {
    mapped_read_all(image);
    FAIL() << "unknown flag bits were accepted";
  } catch (const TraceStoreError& e) {
    EXPECT_NE(std::string(e.what()).find("format flags"), std::string::npos) << e.what();
  }
}

// --- Forged directories: CRC-valid images whose directory lies. ---

std::vector<sniffer::Trace> sample_chunks() {
  const sniffer::Trace trace = sample_trace();
  return {{trace[0], trace[1]}, {trace[2], trace[3], trace[4]}};
}

TEST(MappedV2Forged, HonestBuilderImageDecodes) {
  const std::string image = build_v2(sample_meta(), sample_chunks());
  EXPECT_EQ(mapped_read_all(image), sample_trace());
}

TEST(MappedV2Forged, InflatedDirectoryCountIsClampedBeforeAllocation) {
  // The directory payload holds 2 entries but claims 2^40: the reader must
  // clamp count against payload capacity before reserving anything.
  const std::string image =
      build_v2(sample_meta(), sample_chunks(), {}, std::uint64_t{1} << 40);
  try {
    MappedReader reader(as_span(image));
    FAIL() << "inflated directory count was accepted";
  } catch (const TraceStoreError& e) {
    EXPECT_NE(std::string(e.what()).find("directory entry count"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("exceeds payload capacity"), std::string::npos)
        << e.what();
  }
}

TEST(MappedV2Forged, NonContiguousOffsetIsRejectedAtOpen) {
  const std::string image = build_v2(
      sample_meta(), sample_chunks(),
      [](std::vector<ChunkInfo>& infos, std::uint64_t&) { infos[1].offset += 1; });
  EXPECT_THROW(MappedReader reader(as_span(image)), TraceStoreError);
}

TEST(MappedV2Forged, WrongPayloadLengthBreaksTheTiling) {
  const std::string image = build_v2(
      sample_meta(), sample_chunks(),
      [](std::vector<ChunkInfo>& infos, std::uint64_t&) { infos[0].payload_len += 1; });
  EXPECT_THROW(MappedReader reader(as_span(image)), TraceStoreError);
}

TEST(MappedV2Forged, ZeroRecordEntryIsRejectedAtOpen) {
  const std::string image = build_v2(
      sample_meta(), sample_chunks(), [](std::vector<ChunkInfo>& infos, std::uint64_t& total) {
        total -= infos[0].records;
        infos[0].records = 0;
      });
  EXPECT_THROW(MappedReader reader(as_span(image)), TraceStoreError);
}

TEST(MappedV2Forged, AbsurdRecordCountIsRejectedAtOpen) {
  const std::string image = build_v2(
      sample_meta(), sample_chunks(), [](std::vector<ChunkInfo>& infos, std::uint64_t& total) {
        total += kMaxRecordsPerChunk + 1 - infos[0].records;
        infos[0].records = kMaxRecordsPerChunk + 1;
      });
  EXPECT_THROW(MappedReader reader(as_span(image)), TraceStoreError);
}

TEST(MappedV2Forged, ImplausibleTimeSpanIsRejectedAtOpen) {
  const std::string image = build_v2(
      sample_meta(), sample_chunks(), [](std::vector<ChunkInfo>& infos, std::uint64_t&) {
        infos[0].time_max = infos[0].time_min + (TimeMs{1} << 50);
      });
  EXPECT_THROW(MappedReader reader(as_span(image)), TraceStoreError);
}

TEST(MappedV2Forged, UnderstatedRecordCountIsCaughtAtDecode) {
  // Entry count and end-chunk total agree with each other but not with
  // the actual chunk contents — only the decode cross-check can see that.
  const std::string image = build_v2(
      sample_meta(), sample_chunks(), [](std::vector<ChunkInfo>& infos, std::uint64_t& total) {
        infos[1].records -= 1;
        total -= 1;
      });
  const MappedReader reader(as_span(image));  // structurally fine
  try {
    reader.read_all();
    FAIL() << "forged record count decoded";
  } catch (const TraceStoreError& e) {
    EXPECT_NE(std::string(e.what()).find("record count disagrees with directory"),
              std::string::npos)
        << e.what();
  }
}

TEST(MappedV2Forged, WrongTimeRangeIsCaughtAtDecode) {
  for (const int which : {0, 1}) {
    const std::string image = build_v2(
        sample_meta(), sample_chunks(),
        [which](std::vector<ChunkInfo>& infos, std::uint64_t&) {
          if (which == 0) {
            infos[0].time_min -= 1;
          } else {
            infos[0].time_max += 1;
          }
        });
    const MappedReader reader(as_span(image));
    EXPECT_THROW(reader.read_all(), TraceStoreError) << "which=" << which;
  }
}

TEST(MappedV2Forged, WrongRntiBloomIsCaughtAtDecode) {
  // Both a cleared and an over-broad bloom must be rejected: the decoded
  // chunk has to reproduce the directory entry EXACTLY, else a forger
  // could steer scans away from (or into) chunks at will.
  for (const std::uint64_t forged : {std::uint64_t{0}, ~std::uint64_t{0}}) {
    const std::string image = build_v2(
        sample_meta(), sample_chunks(),
        [forged](std::vector<ChunkInfo>& infos, std::uint64_t&) {
          infos[0].rnti_bloom = forged;
        });
    const MappedReader reader(as_span(image));
    EXPECT_THROW(reader.read_all(), TraceStoreError) << "bloom=" << forged;
  }
}

TEST(MappedV2Forged, SwappedChunkRangesAreRejectedAtOpen) {
  // Each chunk is internally ordered and its directory entry honest, but
  // the second chunk starts before the first one ends.
  const sniffer::Trace trace = sample_trace();
  const std::string image =
      build_v2(sample_meta(), {{trace[2], trace[3], trace[4]}, {trace[0], trace[1]}});
  try {
    MappedReader reader(as_span(image));
    FAIL() << "swapped chunk ranges were accepted";
  } catch (const TraceStoreError& e) {
    EXPECT_NE(std::string(e.what()).find("before the previous chunk ends"), std::string::npos)
        << e.what();
  }
}

TEST(MappedV2Forged, UnorderedRecordsAreCaughtAtDecode) {
  // One chunk whose records step back in time; its directory entry (the
  // true min/max) gives nothing away at open.
  const sniffer::Trace trace = sample_trace();
  const std::string image = build_v2(sample_meta(), {{trace[1], trace[0], trace[2]}});
  const MappedReader reader(as_span(image));
  try {
    reader.read_all();
    FAIL() << "unordered records decoded";
  } catch (const TraceStoreError& e) {
    EXPECT_NE(std::string(e.what()).find("precedes its predecessor"), std::string::npos)
        << e.what();
  }
  // A cursor that threw yields none of the rejected chunk's records after.
  auto cursor = reader.cursor();
  sniffer::TraceRecord record;
  EXPECT_THROW(cursor.next(record), TraceStoreError);
  EXPECT_FALSE(cursor.next(record));
}

// Builds a CRC-valid file whose directory tiles the body honestly and
// claims one record, while the records chunk itself *claims* `count`
// records over `payload_bytes` bytes of record data. Exercises the chunk's
// count-vs-capacity clamp, which must reject before reserve() — not after
// decode trips over garbage.
std::string forge_records_chunk(std::uint64_t count, std::size_t payload_bytes) {
  std::string image(kMagic, sizeof(kMagic));
  image.push_back(static_cast<char>(kFormatVersionV2));
  image.push_back(0);  // flags
  append_chunk(image, kChunkMeta, encode_meta(sample_meta()).bytes());

  ByteWriter records;
  records.put_varint(count);
  for (std::size_t i = 0; i < payload_bytes; ++i) records.put_u8(0);
  ChunkInfo info;
  info.offset = image.size();
  info.payload_len = records.size();
  info.records = 1;
  append_chunk(image, kChunkRecords, records.bytes());

  ByteWriter end;
  end.put_varint(1);
  append_chunk(image, kChunkEnd, end.bytes());
  const std::uint64_t dir_offset = image.size();
  append_chunk(image, kChunkDirectory, encode_directory({info}));
  append_trailer(image, dir_offset);
  return image;
}

TEST(TraceStoreCorruption, InflatedRecordCountIsRejectedBeforeAllocation) {
  // 16 bytes of record data can hold at most 16 / kMinRecordBytes = 4
  // records; a count of 9 passed the old count <= payload.size() check but
  // must fail the per-chunk capacity clamp with a diagnostic, not by
  // reserving memory and then tripping over garbage varints.
  const std::string image = forge_records_chunk(9, 16);
  try {
    mapped_read_all(image);
    FAIL() << "inflated record count was accepted";
  } catch (const TraceStoreError& e) {
    EXPECT_NE(std::string(e.what()).find("record count"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("exceeds chunk capacity"), std::string::npos)
        << e.what();
  }
}

TEST(TraceStoreCorruption, AbsurdRecordCountIsRejected) {
  // A count decoding to billions must be rejected by the capacity clamp
  // (implied by kMaxRecordsPerChunk) long before any allocation.
  const std::string image = forge_records_chunk(kMaxRecordsPerChunk + 1, 32);
  EXPECT_THROW(mapped_read_all(image), TraceStoreError);
}

// --- Block codec. ---

TEST(BlockCodec, RoundTripsCompressibleRandomAndEmptyInputs) {
  Rng rng(3);
  std::vector<std::vector<std::uint8_t>> inputs;
  inputs.push_back({});                                  // empty
  inputs.push_back(std::vector<std::uint8_t>(5'000, 7));  // constant run
  std::vector<std::uint8_t> random_bytes(4'096);
  for (auto& b : random_bytes) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  inputs.push_back(random_bytes);                        // incompressible
  std::vector<std::uint8_t> mixed;
  for (int i = 0; i < 200; ++i) {
    for (const std::uint8_t b : {0x10, 0x20, 0x30, 0x40}) mixed.push_back(b);
    mixed.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
  }
  inputs.push_back(mixed);                               // periodic + noise
  for (const auto& raw : inputs) {
    const auto packed = block_compress(raw);
    EXPECT_EQ(block_decompress(packed, raw.size(), "test"), raw);
  }
  // The constant run must actually compress, or 'Z' chunks never appear.
  EXPECT_LT(block_compress(inputs[1]).size(), inputs[1].size() / 4);
}

TEST(BlockCodec, RejectsWrongDeclaredLength) {
  const std::vector<std::uint8_t> raw(1'000, 42);
  const auto packed = block_compress(raw);
  EXPECT_THROW(block_decompress(packed, raw.size() - 1, "test"), TraceStoreError);
  EXPECT_THROW(block_decompress(packed, raw.size() + 1, "test"), TraceStoreError);
}

TEST(BlockCodec, RejectsOversizedDeclaredLengthBeforeAllocation) {
  const std::vector<std::uint8_t> packed = {0x00};
  EXPECT_THROW(block_decompress(packed, kMaxChunkPayload + 1, "test"), TraceStoreError);
}

TEST(BlockCodec, RejectsForgedMatchTokens) {
  // lit_len=1, one literal, then match_len=4 with dist=5 — only 1 byte has
  // been output, so the distance reaches before the stream: reject.
  ByteWriter bad_dist;
  bad_dist.put_varint(1);
  bad_dist.put_u8(0xAB);
  bad_dist.put_varint(4);
  bad_dist.put_varint(5);
  EXPECT_THROW(block_decompress(bad_dist.bytes(), 5, "test"), TraceStoreError);

  // Zero distance is never valid.
  ByteWriter zero_dist;
  zero_dist.put_varint(1);
  zero_dist.put_u8(0xAB);
  zero_dist.put_varint(4);
  zero_dist.put_varint(0);
  EXPECT_THROW(block_decompress(zero_dist.bytes(), 5, "test"), TraceStoreError);

  // A match overrunning the declared raw length: 1 literal + 4 match = 5,
  // but raw_len says 3.
  ByteWriter overrun;
  overrun.put_varint(1);
  overrun.put_u8(0xAB);
  overrun.put_varint(4);
  overrun.put_varint(1);
  EXPECT_THROW(block_decompress(overrun.bytes(), 3, "test"), TraceStoreError);

  // Trailing bytes after raw_len is reached.
  ByteWriter trailing;
  trailing.put_varint(2);
  trailing.put_u8(0x01);
  trailing.put_u8(0x02);
  const std::vector<std::uint8_t> good = trailing.bytes();
  EXPECT_EQ(block_decompress(good, 2, "test"), (std::vector<std::uint8_t>{0x01, 0x02}));
  std::vector<std::uint8_t> with_garbage = good;
  with_garbage.push_back(0x00);
  EXPECT_THROW(block_decompress(with_garbage, 2, "test"), TraceStoreError);
}

// --- mmap toggle: heap fallback must be bit-identical. ---

class TempDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("ltefp_v2_test_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

using MmapToggleTest = TempDirTest;

TEST_F(MmapToggleTest, HeapFallbackDecodesIdentically) {
  WriterOptions opts;
  opts.compress = true;
  opts.records_per_chunk = 128;
  const sniffer::Trace trace = compressible_trace(1'000);
  const std::string path = dir_ + "/toggle.ltt";
  {
    std::ofstream out(path, std::ios::binary);
    write_trace(out, sample_meta(), trace, opts);
  }
  MmapGuard guard;
  set_mmap_enabled(true);
  const sniffer::Trace via_mmap = MappedReader(path).read_all();
  set_mmap_enabled(false);
  const sniffer::Trace via_heap = MappedReader(path).read_all();
  EXPECT_EQ(via_mmap, trace);
  EXPECT_EQ(via_heap, trace);

  // Ranged cursors too — pruning decisions must not depend on the backing.
  set_mmap_enabled(true);
  const MappedReader mapped(path);
  set_mmap_enabled(false);
  const MappedReader heap(path);
  const TimeMs t0 = trace[100].time;
  const TimeMs t1 = trace[300].time;
  auto cm = mapped.cursor(t0, t1);
  auto ch = heap.cursor(t0, t1);
  EXPECT_EQ(next_all(cm), next_all(ch));
  EXPECT_EQ(cm.chunks_decoded(), ch.chunks_decoded());
  EXPECT_EQ(cm.chunks_skipped(), ch.chunks_skipped());
}

// --- Corpus: shard manifests and range scans. ---

using CorpusV2Test = TempDirTest;

void expect_entries_equal(const std::vector<CorpusEntry>& a, const std::vector<CorpusEntry>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seq, b[i].seq) << "entry " << i;
    EXPECT_EQ(a[i].file, b[i].file) << "entry " << i;
    EXPECT_EQ(a[i].meta, b[i].meta) << "entry " << i;
    EXPECT_EQ(a[i].records, b[i].records) << "entry " << i;
    EXPECT_EQ(a[i].bytes, b[i].bytes) << "entry " << i;
    EXPECT_EQ(a[i].t0_ms, b[i].t0_ms) << "entry " << i;
    EXPECT_EQ(a[i].t1_ms, b[i].t1_ms) << "entry " << i;
  }
}

// Writes the same 8 traces (2 ops × 2 apps × 2 days, distinct time bands)
// into `dir` with the given sharding; returns the traces by seq.
std::vector<sniffer::Trace> write_test_corpus(const std::string& dir,
                                              std::size_t entries_per_shard) {
  Rng rng(21);
  std::vector<sniffer::Trace> traces;
  CorpusOptions options;
  options.entries_per_shard = entries_per_shard;
  options.trace.records_per_chunk = 32;
  options.trace.compress = true;
  CorpusWriter writer(dir, options);
  std::size_t seq = 0;
  for (const int day : {0, 7}) {
    for (const int app : {1, 2}) {
      for (const auto op : {lte::Operator::kLab, lte::Operator::kVerizon}) {
        sniffer::Trace trace = random_trace(rng, 1);
        // Distinct, non-overlapping time bands per entry make time pruning
        // observable: entry k lives in [k*1e6, k*1e6 + spread).
        const TimeMs base = static_cast<TimeMs>(seq) * 1'000'000;
        for (auto& r : trace) r.time = base + (r.time % 900'000);
        std::sort(trace.begin(), trace.end(),
                  [](const auto& a, const auto& b) { return a.time < b.time; });
        TraceMeta meta;
        meta.op = op;
        meta.app = static_cast<std::uint16_t>(app);
        meta.label = "app" + std::to_string(app);
        meta.day = day;
        meta.seed = seq;
        meta.cell = static_cast<lte::CellId>(seq % 3);
        writer.add(meta, trace);
        traces.push_back(std::move(trace));
        ++seq;
      }
    }
  }
  writer.finish();
  return traces;
}

TEST_F(CorpusV2Test, ShardedManifestRoundTripsAndMatchesFlat) {
  const std::string flat_dir = dir_ + "/flat";
  const std::string sharded_dir = dir_ + "/sharded";
  write_test_corpus(flat_dir, 0);     // one shard holding all 8 entries
  write_test_corpus(sharded_dir, 3);  // 8 entries → 3 shard files

  const Corpus flat = Corpus::open(flat_dir);
  const Corpus sharded = Corpus::open(sharded_dir);
  expect_entries_equal(sharded.entries(), flat.entries());
  ASSERT_EQ(flat.entries().size(), 8u);

  for (const auto& [app, day_min] :
       std::vector<std::pair<std::optional<std::uint16_t>, std::optional<std::int32_t>>>{
           {std::nullopt, std::nullopt}, {1, std::nullopt}, {std::nullopt, 1}, {2, 1}}) {
    CorpusFilter filter;
    filter.app = app;
    filter.day_min = day_min;
    expect_entries_equal(sharded.select(filter), flat.select(filter));
  }
  {
    CorpusFilter filter;
    filter.cell = 1;  // seq % 3 == 1 → entries 1, 4, 7
    expect_entries_equal(sharded.select(filter), flat.select(filter));
    EXPECT_EQ(flat.select(filter).size(), 3u);
  }

  // Loads agree entry by entry across layouts.
  for (std::size_t i = 0; i < flat.entries().size(); ++i) {
    EXPECT_EQ(sharded.load(sharded.entries()[i]), flat.load(flat.entries()[i])) << i;
  }
}

TEST_F(CorpusV2Test, InterruptedShardedFinishIsInvisible) {
  CorpusOptions options;
  options.entries_per_shard = 2;
  CorpusWriter writer(dir_ + "/c", options);
  writer.add(sample_meta(), sample_trace());
  EXPECT_FALSE(Corpus::exists(dir_ + "/c"));
}

TEST_F(CorpusV2Test, RangeScanMatchesFilteredLoadAllAtAnyThreadCount) {
  const std::string cdir = dir_ + "/c";
  write_test_corpus(cdir, 3);
  const Corpus corpus = Corpus::open(cdir);

  std::vector<RangeQuery> queries;
  queries.push_back({});  // full range, no filter
  {
    RangeQuery q;       // narrow slice inside entry 2's band
    q.t0 = 2'000'000;
    q.t1 = 2'300'000;
    queries.push_back(q);
  }
  {
    RangeQuery q;       // app filter + time band spanning entries 4..5
    q.filter.app = 1;
    q.t0 = 4'000'000;
    q.t1 = 5'900'000;
    queries.push_back(q);
  }
  {
    RangeQuery q;       // RNTI-targeted full-range scan
    q.rnti = corpus.load(corpus.entries()[3]).front().rnti;
    queries.push_back(q);
  }
  {
    RangeQuery q;       // the targeted-victim shape: cell + RNTI + window
    q.filter.cell = 1;
    q.rnti = corpus.load(corpus.entries()[1]).front().rnti;
    q.t0 = 1'000'000;
    q.t1 = 1'900'000;
    queries.push_back(q);
  }

  // Brute force once: full filtered decode, then per-record filtering.
  const auto brute = [&](const RangeQuery& q) {
    std::vector<Corpus::LoadedTrace> expect;
    for (auto& loaded : corpus.load_all(q.filter)) {
      sniffer::Trace kept = brute_filter(loaded.trace, q.t0, q.t1, q.rnti);
      if (kept.empty()) continue;
      expect.push_back({loaded.entry, std::move(kept)});
    }
    return expect;
  };

  // Every opened file's chunks are either decoded or skipped, once each.
  const auto chunks_in_opened_files = [&](const RangeQuery& q) {
    std::size_t chunks = 0;
    for (const auto& e : corpus.select(q.filter)) {
      if (e.records > 0 && e.t1_ms >= q.t0 && e.t0_ms <= q.t1) {
        chunks += MappedReader(cdir + "/" + e.file).chunks().size();
      }
    }
    return chunks;
  };

  ThreadGuard guard;
  for (const auto& q : queries) {
    const auto expect = brute(q);
    const std::size_t chunks = chunks_in_opened_files(q);
    for (const int threads : {1, 2, 8}) {
      set_thread_count(threads);
      RangeScanStats stats;
      const auto got = corpus.range_scan(q, &stats);
      EXPECT_EQ(stats.chunks_decoded + stats.chunks_skipped, chunks) << "threads=" << threads;
      ASSERT_EQ(got.size(), expect.size()) << "threads=" << threads;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].entry.seq, expect[i].entry.seq) << "threads=" << threads;
        ASSERT_EQ(got[i].trace, expect[i].trace)
            << "entry seq " << expect[i].entry.seq << " threads=" << threads;
      }
    }
  }
}

TEST_F(CorpusV2Test, RangeScanPrunesShardsEntriesAndChunks) {
  // Deterministic layout so pruning is guaranteed, not luck: 8 entries of
  // 256 evenly-spaced records, entry k spanning [k*1e6, k*1e6 + 900k), in
  // 4 shards of 2, with 8 chunks per file.
  const std::string cdir = dir_ + "/c";
  {
    CorpusOptions options;
    options.entries_per_shard = 2;
    options.trace.records_per_chunk = 32;
    CorpusWriter writer(cdir, options);
    for (std::size_t k = 0; k < 8; ++k) {
      sniffer::Trace trace;
      for (int i = 0; i < 256; ++i) {
        trace.push_back({static_cast<TimeMs>(k * 1'000'000 + i * 3'500),
                         static_cast<lte::Rnti>(0x100 + k), lte::Direction::kDownlink, 400, 2});
      }
      TraceMeta meta;
      meta.app = static_cast<std::uint16_t>(k % 4);
      meta.label = "app" + std::to_string(k % 4);
      meta.seed = k;
      meta.cell = static_cast<lte::CellId>(k);
      writer.add(meta, trace);
    }
    writer.finish();
  }
  const Corpus corpus = Corpus::open(cdir);

  RangeQuery q;
  q.t0 = 2'000'000;  // entirely inside entry 2's band (shard 1)
  q.t1 = 2'200'000;
  RangeScanStats stats;
  const auto got = corpus.range_scan(q, &stats);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].entry.seq, 2u);
  EXPECT_EQ(stats.shards_total, 4u);
  EXPECT_GE(stats.shards_pruned, 2u) << "shard summaries pruned nothing";
  EXPECT_GE(stats.entries_pruned, 1u);
  EXPECT_EQ(stats.files_opened, 1u);
  EXPECT_GT(stats.chunks_skipped, 0u) << "chunk directory pruned nothing";
  EXPECT_EQ(stats.chunks_decoded + stats.chunks_skipped, 8u);
  EXPECT_EQ(stats.records_out, got[0].trace.size());

  // A filter that matches nothing prunes every shard by app mask alone.
  RangeQuery none;
  none.filter.app = 63;
  RangeScanStats none_stats;
  EXPECT_TRUE(corpus.range_scan(none, &none_stats).empty());
  EXPECT_EQ(none_stats.files_opened, 0u);
  EXPECT_EQ(none_stats.shards_pruned, none_stats.shards_total);

  // The targeted-victim shape: cell + RNTI over the full day. The cell
  // filter alone must narrow the scan to the victim's single file.
  RangeQuery victim;
  victim.filter.cell = 5;
  victim.rnti = static_cast<lte::Rnti>(0x100 + 5);
  RangeScanStats victim_stats;
  const auto victim_got = corpus.range_scan(victim, &victim_stats);
  ASSERT_EQ(victim_got.size(), 1u);
  EXPECT_EQ(victim_got[0].entry.seq, 5u);
  EXPECT_EQ(victim_got[0].trace.size(), 256u);
  EXPECT_EQ(victim_stats.files_opened, 1u);
  EXPECT_EQ(victim_stats.entries_pruned, victim_stats.entries_considered - 1);
}

// --- Synth generator: determinism is the whole point. ---

using SynthTest = TempDirTest;

TEST_F(SynthTest, SameOptionsYieldByteIdenticalCorpora) {
  SynthOptions options;
  options.seed = 42;
  options.cells = 2;
  options.hours = 3;
  options.ues_per_cell = 3;
  options.sessions_per_ue_hour = 1.5;
  options.corpus.entries_per_shard = 2;
  options.corpus.trace.compress = true;

  const std::string a = dir_ + "/a";
  const std::string b = dir_ + "/b";
  const SynthSummary sa = synth_city_day(a, options);
  const SynthSummary sb = synth_city_day(b, options);
  EXPECT_EQ(sa.files, 6u);  // one per (cell, hour)
  EXPECT_GT(sa.records, 0u);
  EXPECT_EQ(sa.files, sb.files);
  EXPECT_EQ(sa.records, sb.records);
  EXPECT_EQ(sa.bytes, sb.bytes);

  std::vector<std::string> names;
  for (const auto& e : std::filesystem::directory_iterator(a)) {
    names.push_back(e.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  ASSERT_GT(names.size(), sa.files);  // traces + manifest(s)
  for (const auto& name : names) {
    std::ifstream fa(std::filesystem::path(a) / name, std::ios::binary);
    std::ifstream fb(std::filesystem::path(b) / name, std::ios::binary);
    ASSERT_TRUE(fb.good()) << name << " missing from second run";
    std::stringstream ba, bb;
    ba << fa.rdbuf();
    bb << fb.rdbuf();
    EXPECT_EQ(ba.str(), bb.str()) << name << " differs between runs";
  }

  // A different seed must actually change the data (the per-file meta
  // carries a derived seed, so the first trace file cannot coincide).
  SynthOptions other = options;
  other.seed = 43;
  const std::string c = dir_ + "/c";
  synth_city_day(c, other);
  const auto slurp = [](const std::filesystem::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  EXPECT_NE(slurp(std::filesystem::path(a) / "trace_000000.ltt"),
            slurp(std::filesystem::path(c) / "trace_000000.ltt"));
}

TEST_F(SynthTest, RangeScanOnSynthCorpusMatchesBruteForce) {
  SynthOptions options;
  options.seed = 9;
  options.cells = 2;
  options.hours = 4;
  options.ues_per_cell = 4;
  options.corpus.entries_per_shard = 3;
  options.corpus.trace.records_per_chunk = 64;
  synth_city_day(dir_ + "/s", options);

  const Corpus corpus = Corpus::open(dir_ + "/s");
  RangeQuery q;
  q.t0 = 2 * kMsPerHour;           // hour 2 only
  q.t1 = 2 * kMsPerHour + 600'000;
  RangeScanStats stats;
  const auto got = corpus.range_scan(q, &stats);

  std::vector<Corpus::LoadedTrace> expect;
  for (auto& loaded : corpus.load_all()) {
    sniffer::Trace kept = brute_filter(loaded.trace, q.t0, q.t1);
    if (!kept.empty()) expect.push_back({loaded.entry, std::move(kept)});
  }
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].entry.seq, expect[i].entry.seq);
    ASSERT_EQ(got[i].trace, expect[i].trace) << "entry seq " << expect[i].entry.seq;
  }
  EXPECT_LT(stats.files_opened, corpus.entries().size())
      << "manifest time ranges pruned nothing";
}

}  // namespace
}  // namespace ltefp::tracestore
