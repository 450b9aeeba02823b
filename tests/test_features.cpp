#include "features/window.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/rng.hpp"

namespace ltefp::features {
namespace {

using sniffer::Trace;
using sniffer::TraceRecord;

TraceRecord rec(TimeMs t, int bytes, lte::Direction dir = lte::Direction::kDownlink,
                lte::Rnti rnti = 0x100) {
  return TraceRecord{t, rnti, dir, bytes, 0};
}

TEST(FeatureNames, MatchesFeatureCount) {
  EXPECT_EQ(feature_names().size(), kFeatureCount);
}

TEST(ExtractWindows, EmptyTraceYieldsNothing) {
  EXPECT_TRUE(extract_windows({}, 0, WindowConfig{}).empty());
}

TEST(ExtractWindows, SkipsEmptyWindowsByDefault) {
  // Frames at 0-100ms and 500-600ms: three empty windows in between.
  const Trace t{rec(10, 100), rec(550, 200)};
  const auto windows = extract_windows(t, 0, WindowConfig{});
  EXPECT_EQ(windows.size(), 2u);
}

TEST(ExtractWindows, IncludeEmptyEmitsAllWindows) {
  WindowConfig config;
  config.include_empty = true;
  const Trace t{rec(10, 100), rec(550, 200)};
  const auto windows = extract_windows(t, 0, config);
  EXPECT_EQ(windows.size(), 6u);  // windows [0,600) @ 100 ms
  EXPECT_EQ(windows[1][0], 0.0);  // empty window has zero frames
}

TEST(ExtractWindows, BasicAggregates) {
  const Trace t{rec(10, 100, lte::Direction::kDownlink),
                rec(40, 300, lte::Direction::kUplink),
                rec(90, 200, lte::Direction::kDownlink)};
  const auto windows = extract_windows(t, 0, WindowConfig{});
  ASSERT_EQ(windows.size(), 1u);
  const auto& f = windows[0];
  EXPECT_EQ(f[0], 3.0);               // frame_count
  EXPECT_EQ(f[1], 600.0);             // total_bytes
  EXPECT_NEAR(f[2], 200.0, 1e-9);     // mean size
  EXPECT_EQ(f[4], 100.0);             // min
  EXPECT_EQ(f[5], 300.0);             // max
  EXPECT_NEAR(f[6], 40.0, 1e-9);      // mean interarrival: (30+50)/2
  EXPECT_NEAR(f[9], 2.0 / 3.0, 1e-9); // dl frame fraction
  EXPECT_NEAR(f[10], 0.5, 1e-9);      // dl byte fraction 300/600
  EXPECT_EQ(f[11], 2.0);              // dl count
  EXPECT_EQ(f[12], 1.0);              // ul count
  EXPECT_EQ(f[14], 1.0);              // one RNTI
}

TEST(ExtractWindows, CumulativeTimeAnchorsToSessionStart) {
  const Trace t{rec(5'010, 100), rec(8'020, 100)};
  const auto windows = extract_windows(t, 5'000, WindowConfig{});
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_NEAR(windows[0][8], 0.0, 1e-9);  // first window starts at session start
  EXPECT_NEAR(windows[1][8], 3.0, 1e-9);  // 3 s into the session
}

TEST(ExtractWindows, GapBeforeTracksCrossWindowSilence) {
  const Trace t{rec(50, 100), rec(4'060, 100)};
  const auto windows = extract_windows(t, 0, WindowConfig{});
  ASSERT_EQ(windows.size(), 2u);
  // Second window starts at 4000; last prior frame was at 50.
  EXPECT_NEAR(windows[1][15], 3'950.0, 1e-9);
}

TEST(StreamingWindower, IdleGapNearCutoffThenResume) {
  // Session anchored at 1 s; two frames, 59.9 s of silence, then three more.
  const Trace t{rec(1'020, 100), rec(1'050, 100), rec(60'950, 200), rec(60'990, 200),
                rec(61'120, 300)};
  const auto check = [](const std::vector<WindowSlice>& slices) {
    ASSERT_EQ(slices.size(), 3u);
    EXPECT_EQ(slices[0].window_end, 1'100);
    EXPECT_EQ(slices[1].window_end, 61'000);
    EXPECT_EQ(slices[2].window_end, 61'200);
    EXPECT_EQ(slices[1].features[15], 59'850.0);        // gap_before_ms: 60,900 - 1,050
    EXPECT_NEAR(slices[1].features[8], 59.9, 1e-9);     // cumulative_time (s)
    EXPECT_EQ(slices[1].features[6], 29'970.0);         // interarrival (59,900 + 40) / 2
    EXPECT_EQ(slices[2].features[15], 110.0);
    EXPECT_NEAR(slices[2].features[8], 60.1, 1e-9);
  };

  std::vector<WindowSlice> fed;
  StreamingWindower by_feed(1'000, WindowConfig{});
  for (const auto& r : t) by_feed.feed(r, fed);
  by_feed.finish(fed);
  check(fed);

  // Watermark ticks inside the gap, and on a window boundary, change nothing.
  std::vector<WindowSlice> ticked;
  StreamingWindower by_tick(1'000, WindowConfig{});
  by_tick.feed(t[0], ticked);
  by_tick.feed(t[1], ticked);
  for (const TimeMs wm : {1'099, 1'100, 30'037, 60'900, 60'950}) by_tick.close_until(wm, ticked);
  for (std::size_t i = 2; i < t.size(); ++i) by_tick.feed(t[i], ticked);
  by_tick.finish(ticked);
  EXPECT_EQ(ticked, fed);

  WindowConfig with_empty;
  with_empty.include_empty = true;
  EXPECT_EQ(extract_windows(t, 1'000, with_empty).size(), 602u);  // every window to 61,200
}

TEST(ExtractWindows, RntiChurnCounted) {
  const Trace t{rec(10, 100, lte::Direction::kDownlink, 0x100),
                rec(20, 100, lte::Direction::kDownlink, 0x200)};
  const auto windows = extract_windows(t, 0, WindowConfig{});
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0][14], 2.0);
}

TEST(ExtractWindows, DirectionFilterApplies) {
  WindowConfig config;
  config.link = lte::LinkFilter::kUplinkOnly;
  const Trace t{rec(10, 100, lte::Direction::kDownlink),
                rec(20, 300, lte::Direction::kUplink)};
  const auto windows = extract_windows(t, 0, config);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0][0], 1.0);
  EXPECT_EQ(windows[0][1], 300.0);
}

TEST(ExtractWindows, SizeHistogramFractions) {
  const Trace t{rec(1, 40), rec(2, 120), rec(3, 350), rec(4, 800), rec(5, 2000)};
  const auto windows = extract_windows(t, 0, WindowConfig{});
  ASSERT_EQ(windows.size(), 1u);
  const auto& f = windows[0];
  EXPECT_NEAR(f[16], 0.2, 1e-9);  // <=50
  EXPECT_NEAR(f[17], 0.2, 1e-9);  // <=150
  EXPECT_NEAR(f[18], 0.2, 1e-9);  // <=400
  EXPECT_NEAR(f[19], 0.2, 1e-9);  // <=1000
  EXPECT_NEAR(f[20], 0.2, 1e-9);  // >1000
  EXPECT_EQ(f[21], 350.0);        // median
}

TEST(ExtractWindows, RejectsUnsortedTrace) {
  // Fed in this order, the windower would silently drop the two late frames.
  const Trace t{rec(1000, 100), rec(500, 100), rec(2000, 100), rec(100, 100)};
  EXPECT_THROW(extract_windows(t, 0, WindowConfig{}), std::invalid_argument);
}

TEST(ExtractWindows, RejectsNonPositiveWindowLength) {
  // A zero or negative window would never advance past the first record.
  const Trace t{rec(10, 100)};
  for (const TimeMs window_ms : {TimeMs{0}, TimeMs{-5}}) {
    WindowConfig config;
    config.window_ms = window_ms;
    EXPECT_THROW(extract_windows(t, 0, config), std::invalid_argument) << window_ms;
  }
}

TEST(AppendWindows, SetsLabelAndNames) {
  Dataset data;
  const Trace t{rec(10, 100), rec(210, 100)};
  append_windows(data, t, 0, WindowConfig{}, 4);
  EXPECT_EQ(data.feature_names.size(), kFeatureCount);
  ASSERT_EQ(data.size(), 2u);
  EXPECT_EQ(data.samples[0].label, 4);
}

// Window-size sweep: structural invariants hold for any window size.
class WindowSizeSweep : public ::testing::TestWithParam<TimeMs> {};

TEST_P(WindowSizeSweep, FrameCountConserved) {
  Rng rng(31);
  Trace t;
  TimeMs time = 0;
  for (int i = 0; i < 500; ++i) {
    time += rng.uniform_int(1, 120);
    t.push_back(rec(time, static_cast<int>(rng.uniform_int(16, 2000)),
                    rng.bernoulli(0.5) ? lte::Direction::kDownlink : lte::Direction::kUplink));
  }
  WindowConfig config;
  config.window_ms = GetParam();
  const auto windows = extract_windows(t, 0, config);
  double frames = 0.0, bytes = 0.0;
  for (const auto& w : windows) {
    frames += w[0];
    bytes += w[1];
    ASSERT_EQ(w.size(), kFeatureCount);
    ASSERT_GE(w[0], 1.0) << "empty windows must be skipped";
    ASSERT_GE(w[5], w[4]) << "max >= min";
    ASSERT_LE(w[9], 1.0);
    ASSERT_GE(w[9], 0.0);
  }
  EXPECT_EQ(frames, 500.0);
  EXPECT_EQ(bytes, static_cast<double>(total_bytes(t)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, WindowSizeSweep,
                         ::testing::Values<TimeMs>(20, 50, 100, 250, 1000));

}  // namespace
}  // namespace ltefp::features
