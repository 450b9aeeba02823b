// Tests for the streaming attack daemon (src/stream/): incremental window
// extraction pinned to a digest of the batch extractor's output and
// identical at every watermark cadence, session assembly across
// idle cutoffs, verdict CSV format, corpus k-way merge ordering, and the
// end-to-end streaming-equivalence contract — the daemon's verdict stream
// is byte-identical at 1/2/8 workers and its final verdicts match batch
// classify_trace exactly. Suite names contain "Stream"/"Spsc" so
// tools/check.sh runs them under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "attacks/collect.hpp"
#include "attacks/pipeline.hpp"
#include "attacks/replay.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "features/window.hpp"
#include "stream/daemon.hpp"
#include "stream/replay_source.hpp"
#include "stream/session.hpp"
#include "stream/verdict.hpp"
#include "tracestore/corpus.hpp"

namespace ltefp {
namespace {

namespace fs = std::filesystem;

/// Deterministic synthetic trace: bursty arrivals, mixed directions,
/// occasional multi-record subframes and intra-window silence.
sniffer::Trace synth_trace(std::uint64_t seed, std::size_t n, TimeMs start,
                           lte::CellId cell = 7) {
  Rng rng(seed);
  sniffer::Trace trace;
  trace.reserve(n);
  TimeMs time = start;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && !rng.bernoulli(0.2)) {
      time += rng.bernoulli(0.15) ? rng.uniform_int(80, 400) : rng.uniform_int(1, 30);
    }
    sniffer::TraceRecord r;
    r.time = time;
    r.rnti = static_cast<lte::Rnti>(100 + rng.uniform_int(0, 2));
    r.direction = rng.bernoulli(0.6) ? lte::Direction::kDownlink : lte::Direction::kUplink;
    r.tb_bytes = static_cast<int>(rng.uniform_int(16, 3000));
    r.cell = cell;
    trace.push_back(r);
  }
  return trace;
}

/// Streams `trace` through a StreamingWindower with the given watermark
/// cadence (0 = none until finish) and returns the emitted slices.
std::vector<features::WindowSlice> stream_windows(const sniffer::Trace& trace,
                                                const features::WindowConfig& config,
                                                TimeMs watermark_every) {
  std::vector<features::WindowSlice> out;
  features::StreamingWindower w(trace.front().time, config);
  TimeMs next_wm = watermark_every > 0 ? watermark_every : 0;
  for (const auto& r : trace) {
    if (watermark_every > 0 && r.time >= next_wm) {
      // All records with time < next_wm are in: the tick is legal.
      w.close_until(next_wm, out);
      next_wm = (r.time / watermark_every + 1) * watermark_every;
    }
    w.feed(r, out);
  }
  w.finish(out);
  return out;
}

/// FNV-1a over the bit pattern of every feature of every window, with each
/// vector's length folded in: any value that moves by one ulp changes it.
std::uint64_t fold_digest(std::uint64_t h, const std::vector<features::WindowSlice>& slices) {
  const auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xFF;
      h *= 0x100000001B3ull;
    }
  };
  mix(slices.size());
  for (const auto& s : slices) {
    mix(s.features.size());
    for (const double v : s.features) mix(std::bit_cast<std::uint64_t>(v));
  }
  return h;
}

TEST(StreamWindower, BitIdenticalToBatchExtractor) {
  // Oracle: the digest of what the former standalone batch extractor
  // (features::extract_windows before it became a driver over the
  // windower) produced on this grid. Every watermark cadence must
  // reproduce the cadence-free stream exactly.
  std::uint64_t digest = 0xCBF29CE484222325ull;
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    const sniffer::Trace trace = synth_trace(seed, 400, /*start=*/2000);
    for (const auto link : {lte::LinkFilter::kBoth, lte::LinkFilter::kDownlinkOnly,
                            lte::LinkFilter::kUplinkOnly}) {
      for (const bool include_empty : {false, true}) {
        features::WindowConfig config;
        config.link = link;
        config.include_empty = include_empty;
        const auto reference = stream_windows(trace, config, 0);
        digest = fold_digest(digest, reference);
        for (const TimeMs cadence : {TimeMs{128}, TimeMs{1}, TimeMs{1000}}) {
          const auto slices = stream_windows(trace, config, cadence);
          ASSERT_EQ(slices.size(), reference.size())
              << "seed=" << seed << " link=" << static_cast<int>(link)
              << " empty=" << include_empty << " cadence=" << cadence;
          for (std::size_t i = 0; i < reference.size(); ++i) {
            // Exact double equality: the contract is bit-identity, not
            // tolerance.
            ASSERT_EQ(slices[i].features, reference[i].features)
                << "window " << i << " cadence " << cadence;
          }
        }
      }
    }
  }
  EXPECT_EQ(digest, 0xC79F5151B65A7060ull);
}

TEST(StreamWindower, SliceMetadataMatchesWindowGrid) {
  features::WindowConfig config;
  sniffer::Trace trace = synth_trace(3, 200, /*start=*/500);
  const auto slices = stream_windows(trace, config, 128);
  ASSERT_FALSE(slices.empty());
  std::size_t frames = 0;
  TimeMs prev_end = 0;
  for (const auto& s : slices) {
    EXPECT_EQ((s.window_end - 500 - config.window_ms) % config.window_ms, 0);
    EXPECT_GT(s.window_end, prev_end);  // strictly increasing per lane
    prev_end = s.window_end;
    ASSERT_GT(s.frames, 0u);  // include_empty=false
    EXPECT_GE(s.last_record, s.window_end - config.window_ms);
    EXPECT_LT(s.last_record, s.window_end);
    frames += s.frames;
  }
  EXPECT_EQ(frames, trace.size());  // kBoth: every record windowed
}

TEST(StreamWindower, EmptyTailWindowsAreDiscarded) {
  features::WindowConfig config;
  config.include_empty = true;
  sniffer::Trace trace = synth_trace(11, 50, /*start=*/0);
  const auto batch = features::extract_windows(trace, trace.front().time, config);
  // A long watermark run past the last record buffers empty windows that
  // the batch driver (no watermarks) never emits; finish() must drop them.
  std::vector<features::WindowSlice> out;
  features::StreamingWindower w(trace.front().time, config);
  for (const auto& r : trace) w.feed(r, out);
  w.close_until(trace.back().time + 10'000, out);
  w.finish(out);
  ASSERT_EQ(out.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) EXPECT_EQ(out[i].features, batch[i]);
}

// ---------------------------------------------------------------------------
// SessionAssembler

stream::StreamRecord rec(std::uint32_t lane, TimeMs time, lte::Rnti rnti = 100,
                         int bytes = 500, lte::CellId cell = 1) {
  stream::StreamRecord r;
  r.lane = lane;
  r.record = sniffer::TraceRecord{time, rnti, lte::Direction::kDownlink, bytes, cell};
  return r;
}

TEST(StreamSession, IdleCutoffSplitsSessionsAtFeedTime) {
  features::WindowConfig window;
  stream::SessionAssembler asm_(window, attacks::kSessionIdleCutoffMs);
  std::vector<stream::PendingWindow> windows;
  std::vector<stream::SessionEnd> ends;

  asm_.feed(rec(0, 1000, 100), windows, ends);
  asm_.feed(rec(0, 1050, 100), windows, ends);
  // Next record exactly at the cutoff gap: the old session must end first.
  const TimeMs resume = 1050 + attacks::kSessionIdleCutoffMs;
  asm_.feed(rec(0, resume, 200), windows, ends);
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(ends[0].lane, 0u);
  EXPECT_EQ(ends[0].session, 0u);
  EXPECT_EQ(ends[0].rnti, 100);
  EXPECT_EQ(ends[0].end_time, 1050 + attacks::kSessionIdleCutoffMs);
  // First session's single window emitted by the finish inside the cutoff.
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].session, 0u);
  EXPECT_EQ(windows[0].window_end, 1000 + window.window_ms);

  asm_.finish(windows, ends);
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_EQ(ends[1].session, 1u);  // per-lane session index advanced
  EXPECT_EQ(ends[1].rnti, 200);    // new session rebinds to its first RNTI
  EXPECT_EQ(ends[1].end_time, resume + attacks::kSessionIdleCutoffMs);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[1].session, 1u);
  EXPECT_EQ(windows[1].window_end, resume + window.window_ms);
  EXPECT_EQ(asm_.sessions_started(), 2u);
  EXPECT_EQ(asm_.records(), 3u);
}

TEST(StreamSession, WatermarkAdvanceCutsIdleSessions) {
  features::WindowConfig window;
  stream::SessionAssembler asm_(window, attacks::kSessionIdleCutoffMs);
  std::vector<stream::PendingWindow> windows;
  std::vector<stream::SessionEnd> ends;

  asm_.feed(rec(3, 500), windows, ends);
  // Watermark just shy of the cutoff: session stays live.
  asm_.advance(500 + attacks::kSessionIdleCutoffMs - 1, windows, ends);
  EXPECT_TRUE(ends.empty());
  ASSERT_EQ(windows.size(), 1u);  // but its window closed at the tick

  // Watermark at the cutoff: the gap has provably elapsed.
  asm_.advance(500 + attacks::kSessionIdleCutoffMs, windows, ends);
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(ends[0].lane, 3u);
  EXPECT_EQ(ends[0].end_time, 500 + attacks::kSessionIdleCutoffMs);
  // finish() after the cut is a no-op for this lane.
  asm_.finish(windows, ends);
  EXPECT_EQ(ends.size(), 1u);
  EXPECT_EQ(windows.size(), 1u);
}

TEST(StreamSession, LanesAreIndependent) {
  features::WindowConfig window;
  stream::SessionAssembler asm_(window, attacks::kSessionIdleCutoffMs);
  std::vector<stream::PendingWindow> windows;
  std::vector<stream::SessionEnd> ends;

  asm_.feed(rec(1, 100, 100, 500, /*cell=*/10), windows, ends);
  asm_.feed(rec(2, 150, 200, 700, /*cell=*/20), windows, ends);
  asm_.finish(windows, ends);
  ASSERT_EQ(windows.size(), 2u);
  ASSERT_EQ(ends.size(), 2u);
  // finish() visits lanes in lane order regardless of feed order.
  EXPECT_EQ(ends[0].lane, 1u);
  EXPECT_EQ(ends[0].cell, 10);
  EXPECT_EQ(ends[1].lane, 2u);
  EXPECT_EQ(ends[1].cell, 20);
  EXPECT_EQ(asm_.sessions_started(), 2u);
}

TEST(StreamSession, RejectsCutoffNotExceedingWindow) {
  features::WindowConfig window;  // 100 ms
  EXPECT_THROW(stream::SessionAssembler(window, 100), std::invalid_argument);
  EXPECT_THROW(stream::SessionAssembler(window, 50), std::invalid_argument);
  EXPECT_NO_THROW(stream::SessionAssembler(window, 101));
}

TEST(StreamSession, RejectsNonPositiveWindowBeforeAnyWorkerRuns) {
  features::WindowConfig window;
  window.window_ms = 0;
  EXPECT_THROW(stream::SessionAssembler(window, attacks::kSessionIdleCutoffMs),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Verdict CSV

TEST(StreamVerdict, CsvGolden) {
  EXPECT_EQ(stream::verdict_csv_header(),
            "time_ms,cell,lane,rnti,session,app,confidence,windows,final");
  stream::VerdictRecord v;
  v.time = 2108;
  v.cell = 3;
  v.lane = 1;
  v.rnti = 63422;
  v.session = 2;
  v.app = apps::AppId::kYoutube;
  v.confidence = 0.5;
  v.windows = 4;
  v.final_verdict = true;
  EXPECT_EQ(stream::to_csv(v), "2108,3,1,63422,2,YouTube,0.500000,4,1");

  std::ostringstream out;
  stream::CsvSink sink(out);
  sink.emit(v);
  EXPECT_EQ(out.str(),
            "time_ms,cell,lane,rnti,session,app,confidence,windows,final\n"
            "2108,3,1,63422,2,YouTube,0.500000,4,1\n");
}

// ---------------------------------------------------------------------------
// ReplaySource

TEST(StreamReplay, MergesCorpusByTimeThenLane) {
  const std::string dir = testing::TempDir() + "ltefp_stream_replay_corpus";
  fs::remove_all(dir);
  std::vector<sniffer::Trace> traces;
  {
    tracestore::CorpusWriter writer(dir);
    for (std::uint64_t i = 0; i < 3; ++i) {
      tracestore::TraceMeta meta;
      meta.app = static_cast<std::uint16_t>(i);
      meta.label = "lane" + std::to_string(i);
      meta.seed = i;
      meta.cell = static_cast<lte::CellId>(i);
      const sniffer::Trace t = synth_trace(90 + i, 120, /*start=*/i * 7);
      meta.session_start = t.front().time;
      writer.add(meta, t);
      traces.push_back(t);
    }
    writer.finish();
  }

  stream::ReplaySource source(dir);
  EXPECT_EQ(source.lanes(), 3u);
  std::vector<stream::StreamRecord> merged;
  stream::StreamRecord r;
  while (source.next(r)) merged.push_back(r);
  const std::size_t total = traces[0].size() + traces[1].size() + traces[2].size();
  ASSERT_EQ(merged.size(), total);
  EXPECT_EQ(source.records_emitted(), total);

  std::vector<sniffer::Trace> per_lane(3);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    const bool ordered =
        merged[i - 1].record.time < merged[i].record.time ||
        (merged[i - 1].record.time == merged[i].record.time &&
         merged[i - 1].lane <= merged[i].lane);
    ASSERT_TRUE(ordered) << "merge order violated at " << i;
  }
  for (const auto& m : merged) {
    ASSERT_LT(m.lane, 3u);
    per_lane[m.lane].push_back(m.record);
  }
  for (std::size_t lane = 0; lane < 3; ++lane) {
    ASSERT_EQ(per_lane[lane], traces[lane]) << "lane " << lane;
  }
  fs::remove_all(dir);
}

TEST(StreamReplay, RejectsNegativeSpeedAndMissingCorpus) {
  EXPECT_THROW(stream::ReplaySource("/nonexistent/corpus"), std::exception);
  const std::string dir = testing::TempDir() + "ltefp_stream_replay_speed";
  fs::remove_all(dir);
  {
    tracestore::CorpusWriter writer(dir);
    tracestore::TraceMeta meta;
    writer.add(meta, synth_trace(1, 10, 0));
    writer.finish();
  }
  EXPECT_THROW(stream::ReplaySource(dir, -1.0), std::invalid_argument);
  stream::ReplaySource paced(dir, 100.0);
  EXPECT_EQ(paced.speed(), 100.0);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// End to end: daemon vs batch classification

/// Splits a trace at idle gaps >= cutoff — the reference segmentation the
/// daemon's session assembler must reproduce.
std::vector<sniffer::Trace> split_sessions(const sniffer::Trace& trace, TimeMs cutoff) {
  std::vector<sniffer::Trace> out;
  for (const auto& r : trace) {
    if (out.empty() || r.time - out.back().back().time >= cutoff) out.emplace_back();
    out.back().push_back(r);
  }
  return out;
}

std::string render_csv(const std::vector<stream::VerdictRecord>& verdicts) {
  std::string s = stream::verdict_csv_header() + "\n";
  for (const auto& v : verdicts) s += stream::to_csv(v) + "\n";
  return s;
}

TEST(StreamEndToEnd, VerdictsMatchBatchAndAreThreadCountInvariant) {
  const std::string dir = testing::TempDir() + "ltefp_stream_e2e_corpus";
  fs::remove_all(dir);
  attacks::PipelineConfig config;
  config.op = lte::Operator::kLab;
  config.traces_per_app = 1;
  config.trace_duration = seconds(8);
  config.seed = 2026;
  attacks::record_corpus(config, dir);

  config.replay_corpus = dir;
  attacks::FingerprintPipeline pipeline(config);
  pipeline.train(attacks::build_dataset(config));
  ASSERT_NE(pipeline.model(), nullptr);

  stream::StreamConfig stream_config;
  stream_config.window = pipeline.window_config();

  std::vector<std::string> streams;
  std::vector<stream::VerdictRecord> verdicts;  // from the last run
  stream::StreamStats stats;
  for (const int workers : {1, 2, 8}) {
    stream_config.workers = workers;
    stream::ReplaySource source(dir);
    stream::CollectorSink sink;
    stream::StreamDaemon daemon(*pipeline.model(), stream_config);
    stats = daemon.run(source, sink);
    streams.push_back(render_csv(sink.verdicts()));
    verdicts = sink.verdicts();
  }
  // The determinism contract: byte-identical verdict stream at any worker
  // count.
  EXPECT_EQ(streams[0], streams[1]);
  EXPECT_EQ(streams[0], streams[2]);

  // Final verdicts must equal batch classify_trace over the reference
  // segmentation, exactly (same votes, same tie-breaks, same confidence).
  const tracestore::Corpus corpus = tracestore::Corpus::open(dir);
  std::vector<stream::VerdictRecord> finals;
  for (const auto& v : verdicts) {
    if (v.final_verdict) finals.push_back(v);
  }
  std::size_t expected_sessions = 0;
  for (const auto& entry : corpus.entries()) {
    const sniffer::Trace trace = corpus.load(entry);
    ASSERT_FALSE(trace.empty());
    const auto segments = split_sessions(trace, stream_config.idle_cutoff);
    for (std::size_t s = 0; s < segments.size(); ++s) {
      const auto it = std::find_if(finals.begin(), finals.end(), [&](const auto& v) {
        return v.lane == entry.seq && v.session == s;
      });
      ASSERT_NE(it, finals.end()) << "no final verdict for lane " << entry.seq
                                  << " session " << s;
      const attacks::TraceVerdict batch =
          pipeline.classify_trace(segments[s], segments[s].front().time);
      EXPECT_EQ(it->app, batch.app);
      EXPECT_EQ(it->confidence, batch.confidence);  // bit-identical division
      EXPECT_EQ(it->windows, batch.window_count);
      EXPECT_EQ(it->time, segments[s].back().time + stream_config.idle_cutoff);
      EXPECT_EQ(it->rnti, segments[s].front().rnti);
      ++expected_sessions;
    }
  }
  EXPECT_EQ(finals.size(), expected_sessions);
  EXPECT_EQ(stats.final_verdicts, expected_sessions);
  EXPECT_EQ(stats.sessions, expected_sessions);

  // Latency acceptance: every interim decision is knowable within its
  // window, strictly inside one subframe batch.
  ASSERT_GT(stats.latency.count(), 0u);
  EXPECT_LT(stats.latency.p99(), static_cast<double>(stream_config.batch_ms));
  // A record at a window's first subframe decides at window_end, exactly
  // one window later — the worst knowable-time case.
  EXPECT_LE(stats.latency.max(), static_cast<double>(stream_config.window.window_ms));
  // Backpressure instrumentation: one mark per worker, and the queues were
  // actually exercised.
  ASSERT_EQ(stats.queue_high_water.size(), 8u);
  for (const auto hw : stats.queue_high_water) EXPECT_GT(hw, 0u);

  // The interim verdict stream converges: per (lane, session), window
  // counts increase by one per verdict and times strictly increase.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> last_count;
  TimeMs prev_time = -1;
  for (const auto& v : verdicts) {
    EXPECT_GE(v.time, prev_time);  // merged stream is time-ordered
    prev_time = v.time;
    if (v.final_verdict) continue;
    auto& count = last_count[{v.lane, v.session}];
    EXPECT_EQ(v.windows, count + 1);
    count = v.windows;
  }
  fs::remove_all(dir);
}

TEST(StreamEndToEnd, WindowVerdictsCanBeSuppressed) {
  const std::string dir = testing::TempDir() + "ltefp_stream_finals_corpus";
  fs::remove_all(dir);
  attacks::PipelineConfig config;
  config.op = lte::Operator::kLab;
  config.traces_per_app = 1;
  config.trace_duration = seconds(4);
  config.seed = 9;
  attacks::record_corpus(config, dir);
  config.replay_corpus = dir;
  attacks::FingerprintPipeline pipeline(config);
  pipeline.train(attacks::build_dataset(config));

  stream::StreamConfig stream_config;
  stream_config.window = pipeline.window_config();
  stream_config.emit_window_verdicts = false;
  stream_config.workers = 2;
  stream::ReplaySource source(dir);
  stream::CollectorSink sink;
  stream::StreamDaemon daemon(*pipeline.model(), stream_config);
  const stream::StreamStats stats = daemon.run(source, sink);
  EXPECT_EQ(stats.window_verdicts, 0u);
  EXPECT_EQ(sink.verdicts().size(), stats.final_verdicts);
  for (const auto& v : sink.verdicts()) EXPECT_TRUE(v.final_verdict);
  // Latency is still measured: the decision instrument does not depend on
  // interim emission.
  EXPECT_GT(stats.latency.count(), 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ltefp
