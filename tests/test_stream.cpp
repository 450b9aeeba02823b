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
#include <fstream>
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
#include "ml/random_forest.hpp"
#include "stream/daemon.hpp"
#include "stream/replay_source.hpp"
#include "stream/session.hpp"
#include "stream/verdict.hpp"
#include "tracestore/corpus.hpp"
#include "tracestore/synth.hpp"
#include "v2_image_builder.hpp"

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

TEST(StreamSession, LaneCutAtFeedTimeAndReopenedIsListedOnce) {
  features::WindowConfig window;
  stream::SessionAssembler asm_(window, attacks::kSessionIdleCutoffMs);
  std::vector<stream::PendingWindow> windows;
  std::vector<stream::SessionEnd> ends;

  asm_.feed(rec(5, 1000), windows, ends);
  asm_.feed(rec(9, 1010), windows, ends);
  asm_.feed(rec(2, 1020), windows, ends);
  EXPECT_EQ(asm_.live_lanes(), (std::vector<std::uint32_t>{2, 5, 9}));
  // Lane 5's next record is a cutoff later: its session ends and the
  // next one opens in the same feed, and the lane stays listed once.
  asm_.feed(rec(5, 1000 + attacks::kSessionIdleCutoffMs), windows, ends);
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(ends[0].lane, 5u);
  EXPECT_EQ(asm_.live_lanes(), (std::vector<std::uint32_t>{2, 5, 9}));

  // A listed-twice lane would be closed twice here.
  asm_.finish(windows, ends);
  ASSERT_EQ(ends.size(), 4u);
  EXPECT_EQ(ends[1].lane, 2u);
  EXPECT_EQ(ends[2].lane, 5u);
  EXPECT_EQ(ends[2].session, 1u);
  EXPECT_EQ(ends[3].lane, 9u);
  EXPECT_TRUE(asm_.live_lanes().empty());
}

TEST(StreamSession, AdvanceDropsCutLanesAndKeepsTheRestInOrder) {
  features::WindowConfig window;
  stream::SessionAssembler asm_(window, attacks::kSessionIdleCutoffMs);
  std::vector<stream::PendingWindow> windows;
  std::vector<stream::SessionEnd> ends;

  asm_.feed(rec(4, 100), windows, ends);
  asm_.feed(rec(1, 200), windows, ends);
  asm_.feed(rec(7, 5'000), windows, ends);
  asm_.feed(rec(3, 300), windows, ends);
  // Lanes 1, 3 and 4 reach their cutoff by this mark; lane 7 does not.
  asm_.advance(300 + attacks::kSessionIdleCutoffMs, windows, ends);
  ASSERT_EQ(ends.size(), 3u);
  EXPECT_EQ(ends[0].lane, 1u);  // cut in lane order
  EXPECT_EQ(ends[1].lane, 3u);
  EXPECT_EQ(ends[2].lane, 4u);
  EXPECT_EQ(asm_.live_lanes(), std::vector<std::uint32_t>{7});

  // A cut lane reopens with its next session index and rejoins in order.
  asm_.feed(rec(3, 70'000), windows, ends);
  EXPECT_EQ(asm_.live_lanes(), (std::vector<std::uint32_t>{3, 7}));
  asm_.finish(windows, ends);
  ASSERT_EQ(ends.size(), 5u);
  EXPECT_EQ(ends[3].lane, 3u);
  EXPECT_EQ(ends[3].session, 1u);
  EXPECT_EQ(ends[4].lane, 7u);
}

TEST(StreamSession, WatermarkRunAfterEverySessionEndedEmitsNothing) {
  // Marks keep coming after the last session ended, as they do for a
  // worker whose lanes have all gone quiet. They emit nothing, and the
  // whole output equals an assembler that saw no marks at all: finish()
  // cuts each session with the same windows and end time.
  features::WindowConfig window;
  stream::SessionAssembler ticked(window, attacks::kSessionIdleCutoffMs);
  stream::SessionAssembler plain(window, attacks::kSessionIdleCutoffMs);
  std::vector<stream::PendingWindow> windows, plain_windows;
  std::vector<stream::SessionEnd> ends, plain_ends;
  std::vector<stream::StreamRecord> records;
  for (std::uint32_t lane = 0; lane < 6; ++lane) {
    for (const auto& r : synth_trace(300 + lane, 80, 40 * lane)) records.push_back({lane, r});
  }
  std::stable_sort(records.begin(), records.end(), [](const auto& a, const auto& b) {
    return a.record.time < b.record.time;
  });
  TimeMs next_wm = stream::kSubframeBatchMs;
  for (const auto& r : records) {
    while (r.record.time >= next_wm) {
      ticked.advance(next_wm, windows, ends);
      next_wm += stream::kSubframeBatchMs;
    }
    ticked.feed(r, windows, ends);
    plain.feed(r, plain_windows, plain_ends);
  }
  // The first grid mark at or past the last session's end cuts it.
  const TimeMs all_ended = records.back().record.time + attacks::kSessionIdleCutoffMs;
  for (; next_wm < all_ended + stream::kSubframeBatchMs; next_wm += stream::kSubframeBatchMs) {
    ticked.advance(next_wm, windows, ends);
  }
  ASSERT_EQ(ends.size(), 6u);
  EXPECT_TRUE(ticked.live_lanes().empty());

  const std::size_t window_count = windows.size();
  for (int i = 0; i < 20'000; ++i, next_wm += stream::kSubframeBatchMs) {
    ticked.advance(next_wm, windows, ends);
  }
  EXPECT_EQ(windows.size(), window_count);
  EXPECT_EQ(ends.size(), 6u);

  ticked.finish(windows, ends);
  plain.finish(plain_windows, plain_ends);
  // Each lane's windows and end, whichever call emitted them.
  const auto by_lane = [](auto v) {
    std::stable_sort(v.begin(), v.end(), [](const auto& a, const auto& b) { return a.lane < b.lane; });
    return v;
  };
  EXPECT_EQ(by_lane(windows), by_lane(plain_windows));
  EXPECT_EQ(by_lane(ends), by_lane(plain_ends));
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

TEST(StreamReplay, RejectsMissingCorpus) {
  EXPECT_THROW(stream::ReplaySource("/nonexistent/corpus"), std::exception);
}

TEST(StreamReplay, RejectsLaneWhoseRecordsGoBackInTime) {
  // Lane 0 is honest; lane 1's file is swapped for a CRC-valid image whose
  // records step back in time, either inside its second chunk (the
  // directory gives nothing away, so the lane yields records before the
  // error) or across its two chunks (caught at open). Every record yielded
  // before the error is in merge order.
  const std::string dir = testing::TempDir() + "ltefp_stream_replay_regress";
  const auto at = [](TimeMs t) {
    return sniffer::TraceRecord{t, 0x100, lte::Direction::kDownlink, 100, 1};
  };
  const std::vector<std::pair<std::vector<sniffer::Trace>, std::size_t>> cases = {
      // {chunks, lane-1 records yielded}: a lane holds one record ahead, so
      // taking its head 200 decodes (and rejects) the second chunk before
      // 200 is returned.
      {{{at(100), at(200)}, {at(300), at(500), at(400)}}, 1},
      {{{at(100), at(400)}, {at(300), at(500)}}, 0}};
  for (const auto& [chunks, lane1_yielded] : cases) {
    fs::remove_all(dir);
    const tracestore::TraceMeta meta;
    {
      // Lane 1's manifest row agrees with the swapped-in file (metadata and
      // record count), so only the time order can give it away.
      sniffer::Trace honest;
      for (const auto& chunk : chunks) honest.insert(honest.end(), chunk.begin(), chunk.end());
      std::sort(honest.begin(), honest.end(),
                [](const auto& a, const auto& b) { return a.time < b.time; });
      tracestore::CorpusWriter writer(dir);
      writer.add(meta, synth_trace(3, 40, 0));
      writer.add(meta, honest);
      writer.finish();
    }
    const std::string image = tracestore::test_images::build_v2(meta, chunks);
    std::ofstream(dir + "/" + tracestore::Corpus::open(dir).entries()[1].file, std::ios::binary)
        .write(image.data(), static_cast<std::streamsize>(image.size()));

    std::vector<stream::StreamRecord> yielded;
    try {
      stream::ReplaySource source(dir);
      stream::StreamRecord r;
      while (source.next(r)) yielded.push_back(r);
      ADD_FAILURE() << "a lane whose records go back in time replayed to the end";
    } catch (const tracestore::TraceStoreError&) {
    }
    EXPECT_EQ(std::count_if(yielded.begin(), yielded.end(),
                            [](const stream::StreamRecord& r) { return r.lane == 1; }),
              static_cast<std::ptrdiff_t>(lane1_yielded));
    for (std::size_t i = 1; i < yielded.size(); ++i) {
      const auto& a = yielded[i - 1];
      const auto& b = yielded[i];
      ASSERT_TRUE(a.record.time < b.record.time ||
                  (a.record.time == b.record.time && a.lane <= b.lane))
          << "merge order violated at " << i;
    }
  }
  fs::remove_all(dir);
}

TEST(StreamReplay, RejectsLaneFileThatDisagreesWithItsManifestRow) {
  // Copying trace_000001.ltt over trace_000000.ltt leaves a valid file that
  // belongs to another row: ReplaySource must reject it at open, as
  // Corpus::load does, before any record is replayed.
  const std::string dir = testing::TempDir() + "ltefp_stream_replay_swapped";
  fs::remove_all(dir);
  {
    tracestore::CorpusWriter writer(dir);
    for (std::uint64_t i = 0; i < 2; ++i) {
      tracestore::TraceMeta meta;
      meta.app = static_cast<std::uint16_t>(i);
      meta.label = "lane" + std::to_string(i);
      meta.seed = i;
      writer.add(meta, synth_trace(50 + i, 60 + 20 * i, 0));
    }
    writer.finish();
  }
  const auto entries = tracestore::Corpus::open(dir).entries();
  ASSERT_EQ(entries.size(), 2u);
  { stream::ReplaySource intact(dir); }  // the untouched corpus opens

  fs::copy_file(fs::path(dir) / entries[1].file, fs::path(dir) / entries[0].file,
                fs::copy_options::overwrite_existing);
  try {
    stream::ReplaySource source(dir);
    ADD_FAILURE() << "a lane whose file belongs to another manifest row opened";
  } catch (const tracestore::TraceStoreError& e) {
    EXPECT_NE(std::string(e.what()).find("disagrees with manifest row 0"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(tracestore::Corpus::open(dir).load(entries[0]), tracestore::TraceStoreError);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Sharding

TEST(StreamSharding, LanesLiveInOneHourSpreadOverWorkers) {
  // A synth_city_day corpus numbers its entries cell-major, seq = cell *
  // hours + hour, and replay uses the seq as the lane, so the 8 lanes live
  // in one hour of a 24-hour, 8-cell corpus are h, h + 24, ..., h + 168.
  // 24 is a multiple of 2, 3, 4 and 8, so `lane % K` gives all 8 to one
  // worker at each of those worker counts and the replay runs at one
  // worker's speed. worker_of_lane must give no worker all 8.
  //
  // Fibonacci (multiplicative) hashing, (lane * 0x9E3779B9) reduced by
  // multiply-shift, spreads this layout too and measured as fast on its
  // replay (e2ebench corpus_forensics), but at hours = 8 with K = 2 it
  // sends all 8 lanes of an hour to one worker: it only moves the aliasing
  // to another stride. A stateless hash cannot
  // promise a spread for every layout either (all 8 lanes of an hour meet
  // on one worker with chance K^-7), so this pins the layout the corpus
  // replay benchmarks use. Reducing fmix32 by multiply-shift instead of
  // modulo fails it: all 8 lanes of hour 19 meet at K = 2 and at K = 3.
  constexpr std::uint32_t kCells = 8;
  constexpr std::uint32_t kHours = 24;
  for (const std::size_t workers : {2u, 3u, 4u, 8u}) {
    std::vector<std::size_t> day_load(workers, 0);
    for (std::uint32_t hour = 0; hour < kHours; ++hour) {
      std::vector<std::size_t> load(workers, 0);
      std::vector<std::size_t> modulo_load(workers, 0);
      for (std::uint32_t cell = 0; cell < kCells; ++cell) {
        const std::uint32_t lane = cell * kHours + hour;
        const std::size_t worker = stream::worker_of_lane(lane, workers);
        ASSERT_LT(worker, workers);
        ++load[worker];
        ++day_load[worker];
        ++modulo_load[lane % workers];
      }
      EXPECT_EQ(*std::max_element(modulo_load.begin(), modulo_load.end()), kCells)
          << "K=" << workers << " hour " << hour;
      EXPECT_LT(*std::max_element(load.begin(), load.end()), kCells)
          << "K=" << workers << " hour " << hour;
    }
    for (std::size_t w = 0; w < workers; ++w) EXPECT_GT(day_load[w], 0u) << "K=" << workers;
  }
  // One worker owns everything.
  for (std::uint32_t lane = 0; lane < 1000; ++lane) {
    EXPECT_EQ(stream::worker_of_lane(lane, 1), 0u);
  }
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

/// One lane's record stream: a burst of synth_trace records per start
/// time, each clipped to its first 3 s.
std::vector<stream::StreamRecord> lane_bursts(std::uint32_t lane,
                                              const std::vector<TimeMs>& starts) {
  std::vector<stream::StreamRecord> out;
  for (std::size_t b = 0; b < starts.size(); ++b) {
    const auto trace = synth_trace(1000 + lane * 31 + b, 40, starts[b],
                                   static_cast<lte::CellId>(1 + lane % 2));
    for (const auto& r : trace) {
      if (r.time < starts[b] + 3000) out.push_back({lane, r});
    }
  }
  return out;
}

/// A small forest over synthetic windows, labelled with app ids, so its
/// predictions are valid votes.
ml::RandomForest vote_model(const features::WindowConfig& window) {
  features::Dataset data;
  data.feature_names = features::feature_names();
  for (int app = 0; app < apps::kNumApps; ++app) {
    data.label_names.push_back(apps::to_string(static_cast<apps::AppId>(app)));
  }
  for (std::uint64_t seed = 0; seed < 18; ++seed) {
    const auto trace = synth_trace(seed, 120, 0);
    features::append_windows(data, trace, 0, window,
                             static_cast<int>(seed % static_cast<std::uint64_t>(apps::kNumApps)));
  }
  ml::ForestConfig config;
  config.num_trees = 12;
  ml::RandomForest rf(config);
  rf.fit(data);
  return rf;
}

/// Runs `records` at 1/2/8 workers: the verdict streams must be
/// byte-identical and every final verdict must equal batch classify_trace
/// over the reference segmentation. `verdicts` gets the stream.
void expect_daemon_matches_batch(const std::vector<stream::StreamRecord>& records,
                                 stream::StreamConfig config, const ml::Classifier& model,
                                 std::vector<stream::VerdictRecord>& verdicts) {
  std::vector<std::string> streams;
  for (const int workers : {1, 2, 8}) {
    config.workers = workers;
    stream::VectorSource source(records);
    stream::CollectorSink sink;
    const stream::StreamStats stats = stream::StreamDaemon(model, config).run(source, sink);
    EXPECT_EQ(stats.records, records.size());
    EXPECT_EQ(stats.late_records, 0u);
    streams.push_back(render_csv(sink.verdicts()));
    verdicts = sink.verdicts();
  }
  EXPECT_EQ(streams[0], streams[1]);
  EXPECT_EQ(streams[0], streams[2]);

  std::map<std::uint32_t, sniffer::Trace> lanes;
  for (const auto& r : records) lanes[r.lane].push_back(r.record);
  std::size_t sessions = 0;
  for (const auto& [lane, trace] : lanes) {
    const auto segments = split_sessions(trace, config.idle_cutoff);
    for (std::size_t s = 0; s < segments.size(); ++s) {
      const auto it = std::find_if(verdicts.begin(), verdicts.end(), [&](const auto& v) {
        return v.final_verdict && v.lane == lane && v.session == s;
      });
      ASSERT_NE(it, verdicts.end()) << "no final verdict for lane " << lane << " session " << s;
      const attacks::TraceVerdict batch =
          attacks::classify_trace(model, segments[s], segments[s].front().time, config.window);
      EXPECT_EQ(it->app, batch.app);
      EXPECT_EQ(it->confidence, batch.confidence);
      EXPECT_EQ(it->windows, batch.window_count);
      EXPECT_EQ(it->time, segments[s].back().time + config.idle_cutoff);
      ++sessions;
    }
  }
  EXPECT_EQ(static_cast<std::size_t>(std::count_if(
                verdicts.begin(), verdicts.end(), [](const auto& v) { return v.final_verdict; })),
            sessions);
}

TEST(StreamEndToEnd, SparseLanesThatFallIdleAndReopenMatchBatch) {
  // Lanes go silent for longer than the idle cutoff and reopen, so whole
  // workers have no open session for long stretches while marks keep
  // arriving. Two session ends sit at a watermark:
  //  - lane 0's last record is at 128 * 40 - cutoff, so its session ends
  //    exactly on the mark 128 * 40; nothing else arrives until lane 1
  //    reopens at 128 * 40, and that record broadcasts the mark;
  //  - lane 2's last phase-C record is at 128 * 188 - cutoff + 1, so its
  //    session ends 1 ms after the mark 128 * 188 and needs the next one.
  stream::StreamConfig config;
  config.idle_cutoff = 1000;
  // Two-item queues keep the driver in step with the workers, so verdicts
  // are emitted as marks are acknowledged, not all after the final flush.
  config.queue_capacity = 2;
  const TimeMs exact = 128 * 40;
  const TimeMs one_past = 128 * 188 + 1;

  // Every burst lasts under 3 s: phase A ends before 3100, phase C before
  // 23100.
  std::vector<stream::StreamRecord> records;
  for (std::uint32_t lane = 0; lane < 6; ++lane) {
    std::vector<TimeMs> starts = {10 + 7 * static_cast<TimeMs>(lane), 20'000 + 11 * lane};
    if (lane == 1) starts.insert(starts.begin() + 1, exact);
    if (lane % 2 == 0) starts.push_back(40'000 + 13 * lane);
    const auto burst = lane_bursts(lane, starts);
    records.insert(records.end(), burst.begin(), burst.end());
  }
  const auto tail_record = [&](std::uint32_t lane, TimeMs time) {
    sniffer::TraceRecord r = lane_bursts(lane, {time}).front().record;
    records.push_back({lane, r});
  };
  tail_record(0, exact - config.idle_cutoff);
  tail_record(2, one_past - config.idle_cutoff);
  const auto merge_order = [&records] {
    std::stable_sort(records.begin(), records.end(), [](const auto& a, const auto& b) {
      return a.record.time != b.record.time ? a.record.time < b.record.time : a.lane < b.lane;
    });
  };
  merge_order();

  const ml::RandomForest model = vote_model(config.window);
  std::vector<stream::VerdictRecord> verdicts;
  expect_daemon_matches_batch(records, config, model, verdicts);
  const auto ends_at = [&](TimeMs t) {
    return std::any_of(verdicts.begin(), verdicts.end(),
                       [&](const auto& v) { return v.final_verdict && v.time == t; });
  };
  EXPECT_TRUE(ends_at(exact));
  EXPECT_TRUE(ends_at(one_past));

  // The same lanes beside a heartbeat lane that sends a record every 50 ms,
  // so every grid point is broadcast and marks keep arriving while other
  // workers' sessions run out.
  for (TimeMs t = 0; t < 45'000; t += 50) {
    sniffer::TraceRecord r;
    r.time = t;
    r.rnti = 77;
    r.direction = lte::Direction::kDownlink;
    r.tb_bytes = 400;
    r.cell = 1;
    records.push_back({7, r});
  }
  merge_order();
  expect_daemon_matches_batch(records, config, model, verdicts);
  EXPECT_TRUE(ends_at(exact));
  EXPECT_TRUE(ends_at(one_past));
}

TEST(StreamEndToEnd, ReplayOfASynthCityDayIsWorkerCountInvariant) {
  // Eight cells over four hours: seqs stride by 4, so the lanes live in
  // one hour share a residue mod 2 and 4, and hashing the lane moves them
  // at 3 and 4 workers as well. Every ReplaySource run must give the
  // verdict stream a VectorSource run over the same records gives, and
  // that stream's final verdicts equal batch classification.
  const std::string dir = testing::TempDir() + "ltefp_stream_synth_day";
  fs::remove_all(dir);
  tracestore::SynthOptions options;
  options.seed = 17;
  options.cells = 8;
  options.hours = 4;
  options.ues_per_cell = 4;
  options.sessions_per_ue_hour = 2.0;
  tracestore::synth_city_day(dir, options);

  std::vector<stream::StreamRecord> records;
  {
    stream::ReplaySource source(dir);
    stream::StreamRecord r;
    while (source.next(r)) records.push_back(r);
  }
  ASSERT_FALSE(records.empty());
  std::vector<bool> hours_live(options.hours, false);
  for (const auto& r : records) hours_live[r.lane % options.hours] = true;
  for (std::size_t h = 0; h < options.hours; ++h) EXPECT_TRUE(hours_live[h]) << "hour " << h;

  stream::StreamConfig config;
  const ml::RandomForest model = vote_model(config.window);
  std::vector<stream::VerdictRecord> oracle;
  expect_daemon_matches_batch(records, config, model, oracle);
  ASSERT_FALSE(oracle.empty());
  const std::string expected = render_csv(oracle);

  for (const int workers : {1, 2, 3, 4, 8}) {
    config.workers = workers;
    stream::ReplaySource source(dir);
    stream::CollectorSink sink;
    const stream::StreamStats stats = stream::StreamDaemon(model, config).run(source, sink);
    EXPECT_EQ(stats.records, records.size()) << workers << " workers";
    EXPECT_EQ(render_csv(sink.verdicts()), expected) << workers << " workers";
  }
  fs::remove_all(dir);
}

TEST(StreamEndToEnd, LateRecordsAreDroppedAndCounted) {
  // A record below the last broadcast watermark is dropped: the stream
  // equals the one without it, and late_records counts it.
  stream::StreamConfig config;
  config.idle_cutoff = 1000;
  config.workers = 2;
  const auto rec = [](std::uint32_t lane, TimeMs time) {
    sniffer::TraceRecord r;
    r.time = time;
    r.rnti = static_cast<lte::Rnti>(200 + lane);
    r.direction = lte::Direction::kDownlink;
    r.tb_bytes = 100 + static_cast<int>(time % 700);
    r.cell = 3;
    return stream::StreamRecord{lane, r};
  };
  std::vector<stream::StreamRecord> on_time;
  for (TimeMs t = 0; t < 2000; t += 37) on_time.push_back(rec(static_cast<std::uint32_t>(t % 3), t));
  std::vector<stream::StreamRecord> with_late = on_time;
  // Inserted after the record at 370, whose arrival broadcast the mark 256.
  const auto at = std::find_if(with_late.begin(), with_late.end(),
                               [](const auto& r) { return r.record.time > 370; });
  with_late.insert(at, rec(1, 200));

  const ml::RandomForest model = vote_model(config.window);
  stream::VectorSource clean_source(on_time);
  stream::CollectorSink clean_sink;
  const auto clean = stream::StreamDaemon(model, config).run(clean_source, clean_sink);
  stream::VectorSource late_source(with_late);
  stream::CollectorSink late_sink;
  const auto late = stream::StreamDaemon(model, config).run(late_source, late_sink);

  EXPECT_EQ(clean.late_records, 0u);
  EXPECT_EQ(late.late_records, 1u);
  EXPECT_EQ(late.records, clean.records);
  ASSERT_FALSE(clean_sink.verdicts().empty());
  EXPECT_EQ(render_csv(late_sink.verdicts()), render_csv(clean_sink.verdicts()));
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
