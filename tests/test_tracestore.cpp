#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "attacks/replay.hpp"
#include "common/rng.hpp"
#include "tracestore/corpus.hpp"
#include "tracestore/mapped_reader.hpp"
#include "tracestore/varint.hpp"
#include "tracestore/writer.hpp"

namespace ltefp::tracestore {
namespace {

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

std::string encode(const TraceMeta& meta, const sniffer::Trace& trace, WriterOptions opts = {}) {
  std::ostringstream out;
  write_trace(out, meta, trace, opts);
  return out.str();
}

/// Opens and fully decodes an in-memory .ltt image.
sniffer::Trace decode_image(const std::string& image, TraceMeta* meta = nullptr) {
  const MappedReader reader(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(image.data()), image.size()));
  if (meta != nullptr) *meta = reader.meta();
  return reader.read_all();
}

TEST(Varint, ZigzagRoundTrip) {
  const std::int64_t values[] = {0, 1, -1, 63, -64, 1'000'000'000'000, INT64_MAX, INT64_MIN};
  for (const std::int64_t v : values) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  }
}

TEST(Varint, EncodeDecodeBoundaries) {
  ByteWriter w;
  const std::uint64_t values[] = {0, 1, 127, 128, 16383, 16384, UINT64_MAX};
  for (const auto v : values) w.put_varint(v);
  ByteReader r(w.bytes(), "test");
  for (const auto v : values) EXPECT_EQ(r.get_varint(), v);
  EXPECT_TRUE(r.at_end());
}

TEST(Varint, RejectsOverlongEncoding) {
  const std::uint8_t overlong[] = {0x80, 0x00};  // value 0 in two bytes
  ByteReader r(overlong, "test");
  EXPECT_THROW(r.get_varint(), TraceStoreError);
}

TEST(Varint, RejectsTruncated) {
  const std::uint8_t dangling[] = {0xFF};  // continuation bit with no next byte
  ByteReader r(dangling, "test");
  EXPECT_THROW(r.get_varint(), TraceStoreError);
}

TEST(TraceStore, RoundTripPreservesMetaAndRecords) {
  const std::string image = encode(sample_meta(), sample_trace());
  TraceMeta meta;
  const sniffer::Trace back = decode_image(image, &meta);
  EXPECT_EQ(meta, sample_meta());
  EXPECT_EQ(back, sample_trace());
}

TEST(TraceStore, EmptyTraceRoundTrips) {
  const std::string image = encode(sample_meta(), {});
  EXPECT_TRUE(decode_image(image).empty());
}

TEST(TraceStore, SmallChunksRoundTrip) {
  // Every chunk boundary restarts the delta/dictionary state; the chunks
  // must still decode to the original records.
  const std::string image = encode(sample_meta(), sample_trace(), WriterOptions{2});
  EXPECT_EQ(decode_image(image), sample_trace());
}

TEST(TraceStore, WriterRejectsRecordOlderThanItsPredecessor) {
  std::ostringstream out;
  Writer writer(out, sample_meta());
  writer.add({100, 0x100, lte::Direction::kDownlink, 500, 1});
  writer.add({100, 0x100, lte::Direction::kUplink, 60, 1});  // equal times are ordered
  try {
    writer.add({99, 0x100, lte::Direction::kDownlink, 500, 1});
    FAIL() << "a record older than its predecessor was accepted";
  } catch (const TraceStoreError& e) {
    EXPECT_NE(std::string(e.what()).find("precedes its predecessor"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(writer.records_written(), 2u);
}

TEST(TraceStore, BinaryBeatsCsvOnRealisticTrace) {
  Rng rng(31);
  sniffer::Trace trace;
  TimeMs t = 0;
  for (int i = 0; i < 5'000; ++i) {
    t += rng.uniform_int(1, 40);
    trace.push_back({t, static_cast<lte::Rnti>(0x100 + (i % 4)),
                     rng.bernoulli(0.5) ? lte::Direction::kDownlink : lte::Direction::kUplink,
                     static_cast<int>(rng.uniform_int(16, 3000)), 7});
  }
  const std::string binary = encode(sample_meta(), trace);
  std::ostringstream csv;
  sniffer::write_csv(csv, trace);
  EXPECT_LT(binary.size() * 2, csv.str().size())
      << "binary=" << binary.size() << " csv=" << csv.str().size();
}

// --- Round-trip property test (satellite): random traces, including the
// nasty shapes, survive binary AND CSV round-trips losslessly and agree. ---

sniffer::Trace random_trace(Rng& rng, int shape) {
  sniffer::Trace trace;
  const std::size_t n = (shape == 0) ? 0 : static_cast<std::size_t>(rng.uniform_int(1, 400));
  TimeMs t = (shape == 3) ? 30 * kMsPerHour : 0;  // >24h timestamps
  for (std::size_t i = 0; i < n; ++i) {
    sniffer::TraceRecord r;
    t += rng.uniform_int(0, 500);
    r.time = t;
    // Out-of-order / churning RNTIs: fully random values, no ordering.
    r.rnti = static_cast<lte::Rnti>(rng.uniform_int(0, 0xFFFF));
    r.direction = rng.bernoulli(0.5) ? lte::Direction::kDownlink : lte::Direction::kUplink;
    // Zero-byte records are legal (padding DCIs); keep them common.
    r.tb_bytes = rng.bernoulli(0.2) ? 0 : static_cast<int>(rng.uniform_int(0, 100'000));
    r.cell = static_cast<lte::CellId>(rng.uniform_int(0, 503));
    trace.push_back(r);
  }
  if (shape == 4 && trace.size() > 2) {
    // Non-monotone timestamps (an unmerged multi-sniffer capture): the
    // writer must refuse them.
    std::swap(trace.front().time, trace.back().time);
  }
  return trace;
}

TEST(TraceStoreProperty, BinaryAndCsvRoundTripsAgree) {
  Rng rng(2026);
  for (int iter = 0; iter < 60; ++iter) {
    const int shape = iter % 5;
    const sniffer::Trace trace = random_trace(rng, shape);
    TraceMeta meta = sample_meta();
    meta.session_start = trace.empty() ? 0 : trace.front().time;

    const WriterOptions opts{static_cast<std::size_t>(rng.uniform_int(1, 64))};

    std::ostringstream csv;
    sniffer::write_csv(csv, trace);
    const sniffer::Trace from_csv = sniffer::read_csv(csv.str());
    ASSERT_EQ(from_csv, trace) << "csv round-trip, shape " << shape << " iter " << iter;

    if (shape == 4 && trace.size() > 2) {
      EXPECT_THROW(encode(meta, trace, opts), TraceStoreError)
          << "unordered trace was written, iter " << iter;
      continue;
    }
    TraceMeta meta_back;
    const sniffer::Trace from_binary = decode_image(encode(meta, trace, opts), &meta_back);
    ASSERT_EQ(from_binary, trace) << "binary round-trip, shape " << shape << " iter " << iter;
    ASSERT_EQ(meta_back, meta);
    ASSERT_EQ(from_binary, from_csv) << "binary/csv disagreement at iter " << iter;
  }
}

// --- Corruption / truncation rejection (acceptance criterion). ---

TEST(TraceStoreCorruption, EveryTruncationIsRejected) {
  const std::string image = encode(sample_meta(), sample_trace());
  for (std::size_t len = 0; len < image.size(); ++len) {
    EXPECT_THROW(decode_image(image.substr(0, len)), TraceStoreError)
        << "truncation to " << len << " of " << image.size() << " bytes was not detected";
  }
}

TEST(TraceStoreCorruption, TrailingGarbageIsRejected) {
  const std::string image = encode(sample_meta(), sample_trace());
  EXPECT_THROW(decode_image(image + "x"), TraceStoreError);
}

TEST(TraceStoreCorruption, RejectsForeignFile) {
  EXPECT_THROW(decode_image("time_ms,rnti,direction,tb_bytes,cell\n"), TraceStoreError);
  EXPECT_THROW(decode_image(""), TraceStoreError);
}

TEST(TraceStoreCorruption, RejectsFutureVersion) {
  std::string image = encode(sample_meta(), sample_trace());
  image[4] = 99;
  EXPECT_THROW(decode_image(image), TraceStoreError);
}

TEST(TraceStoreCorruption, RejectsEveryVersionButTwoNamingIt) {
  for (const int version : {0, 1, 3, 255}) {
    std::string image = encode(sample_meta(), sample_trace());
    image[sizeof(kMagic)] = static_cast<char>(version);
    try {
      decode_image(image);
      FAIL() << "format version " << version << " was accepted";
    } catch (const TraceStoreError& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported format version " +
                                           std::to_string(version)),
                std::string::npos)
          << e.what();
    }
  }
}

// --- Corpus: manifest-indexed directory of traces. ---

class CorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("ltefp_corpus_test_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(CorpusTest, WriteSelectLoad) {
  Rng rng(5);
  {
    CorpusWriter writer(dir_);
    for (int app = 0; app < 3; ++app) {
      for (int day : {0, 7}) {
        TraceMeta meta;
        meta.app = static_cast<std::uint16_t>(app);
        meta.label = "app" + std::to_string(app);
        meta.day = day;
        meta.op = lte::Operator::kVerizon;
        writer.add(meta, random_trace(rng, 1));
      }
    }
    writer.finish();
  }
  ASSERT_TRUE(Corpus::exists(dir_));
  const Corpus corpus = Corpus::open(dir_);
  EXPECT_EQ(corpus.entries().size(), 6u);

  CorpusFilter by_app;
  by_app.app = 1;
  EXPECT_EQ(corpus.select(by_app).size(), 2u);

  CorpusFilter by_day;
  by_day.day_min = 1;
  const auto later = corpus.select(by_day);
  EXPECT_EQ(later.size(), 3u);
  for (const auto& e : later) EXPECT_EQ(e.meta.day, 7);

  // Loading decodes and validates; records match the manifest count.
  for (const auto& e : corpus.entries()) {
    EXPECT_EQ(corpus.load(e).size(), e.records);
  }
}

TEST_F(CorpusTest, UnfinishedCorpusIsInvisible) {
  CorpusWriter writer(dir_);
  writer.add(sample_meta(), sample_trace());
  // finish() not yet called: no manifest, so the corpus does not exist.
  EXPECT_FALSE(Corpus::exists(dir_));
  EXPECT_THROW(Corpus::open(dir_), TraceStoreError);
}

TEST_F(CorpusTest, CorruptedTraceFileIsRejectedOnLoad) {
  {
    CorpusWriter writer(dir_);
    writer.add(sample_meta(), sample_trace());
    writer.finish();
  }
  const Corpus corpus = Corpus::open(dir_);
  const auto path = std::filesystem::path(dir_) / corpus.entries()[0].file;
  // Flip one payload byte on disk.
  std::string image;
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    image = buf.str();
  }
  ASSERT_GT(image.size(), 40u);
  image[40] = static_cast<char>(image[40] ^ 0x40);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << image;
  }
  EXPECT_THROW(corpus.load(corpus.entries()[0]), TraceStoreError);
}

TEST_F(CorpusTest, RecordThenReplayYieldsBitIdenticalDataset) {
  attacks::PipelineConfig config;
  config.op = lte::Operator::kLab;
  config.traces_per_app = 1;
  config.trace_duration = seconds(8);
  config.seed = 321;

  const attacks::RecordResult rec = attacks::record_corpus(config, dir_);
  EXPECT_EQ(rec.traces, static_cast<std::size_t>(apps::kNumApps));
  EXPECT_GT(rec.records, 0u);
  EXPECT_LT(rec.corpus_bytes, rec.csv_bytes);

  const features::Dataset live = attacks::build_dataset(config);
  attacks::PipelineConfig replay = config;
  replay.replay_corpus = dir_;
  const features::Dataset replayed = attacks::build_dataset(replay);

  ASSERT_EQ(replayed.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(replayed.samples[i].label, live.samples[i].label) << "window " << i;
    // Feature doubles must match bit-for-bit: replay feeds the classifier
    // the exact records the simulation produced.
    ASSERT_EQ(replayed.samples[i].features, live.samples[i].features) << "window " << i;
  }
}

TEST_F(CorpusTest, LoadCorpusFiltersByApp) {
  attacks::PipelineConfig config;
  config.op = lte::Operator::kLab;
  config.traces_per_app = 2;
  config.trace_duration = seconds(4);
  config.seed = 99;
  attacks::record_corpus(config, dir_);

  const auto all = attacks::load_corpus(dir_);
  EXPECT_EQ(all.size(), static_cast<std::size_t>(2 * apps::kNumApps));
  const auto skype = attacks::load_corpus(dir_, apps::AppId::kSkype);
  ASSERT_EQ(skype.size(), 2u);
  for (const auto& t : skype) EXPECT_EQ(t.app, apps::AppId::kSkype);
}

TEST_F(CorpusTest, ManifestMetadataMismatchIsRejected) {
  {
    CorpusWriter writer(dir_);
    writer.add(sample_meta(), sample_trace());
    writer.finish();
  }
  Corpus corpus = Corpus::open(dir_);
  CorpusEntry tampered = corpus.entries()[0];
  tampered.meta.seed ^= 1;
  EXPECT_THROW(corpus.load(tampered), TraceStoreError);
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void replace_in_file(const std::filesystem::path& path, const std::string& from,
                     const std::string& to) {
  std::string text = slurp(path);
  const std::size_t at = text.find(from);
  ASSERT_NE(at, std::string::npos) << from << " not in " << path;
  text.replace(at, from.size(), to);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

TEST_F(CorpusTest, ManifestFileNamesMustStayInsideTheCorpus) {
  const std::filesystem::path root(dir_);
  for (const std::string bad : {"/etc/passwd", "../x", "..", "sub/trace.ltt"}) {
    std::filesystem::remove_all(root);
    {
      CorpusWriter writer(dir_);
      writer.add(sample_meta(), sample_trace());
      writer.finish();
    }
    // A trace name in a shard file.
    replace_in_file(root / "manifest_0000.csv", "trace_000000.ltt", bad);
    const Corpus corpus = Corpus::open(dir_);
    EXPECT_THROW(corpus.entries(), TraceStoreError) << "trace name " << bad;
    EXPECT_THROW(corpus.load_all(), TraceStoreError) << "trace name " << bad;

    // A shard name in the shard index.
    replace_in_file(root / "manifest.csv", "manifest_0000.csv", bad);
    EXPECT_THROW(Corpus::open(dir_), TraceStoreError) << "shard name " << bad;
  }
}

}  // namespace
}  // namespace ltefp::tracestore
