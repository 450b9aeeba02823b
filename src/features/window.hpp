// Sliding-window feature extraction (paper Sections V-VI).
//
// The classifier never sees whole sessions: to support "asynchronous
// sessions, where the machine learning algorithm has no knowledge about
// where the sessions in the trace begin and end", the trace is cut into
// fixed-size time windows (paper default: 100 ms) and the frames in each
// window are aggregated into one feature vector built from the Table II
// vectors — time (interarrival, cumulative), size (TBS), direction
// (UL/DL), and identity (RNTI churn).
//
// StreamingWindower is the one implementation of those features. It
// consumes one record at a time and keeps per-window running statistics
// (Welford accumulators, band counters, a reused frame-size scratch), so
// each arriving subframe costs O(1) amortized and a closing window never
// rescans the trace. The streaming daemon drives it record by record;
// extract_windows() is the batch driver over a whole captured trace.
// Window emission does not depend on when close_until() is called.
#pragma once

#include <cstddef>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/sim_time.hpp"
#include "common/stats.hpp"
#include "features/dataset.hpp"
#include "lte/types.hpp"
#include "sniffer/trace.hpp"

namespace ltefp::features {

struct WindowConfig {
  TimeMs window_ms = 100;                              // paper's empirical choice
  lte::LinkFilter link = lte::LinkFilter::kBoth;       // Down+Up / Down / Up
  bool include_empty = false;                          // emit all-zero windows too
};

/// Names of the extracted features, in vector order.
std::vector<std::string> feature_names();
constexpr std::size_t kFeatureCount = 22;

/// A completed window: its feature vector plus the timing the daemon needs
/// for verdict stamping and decision-latency measurement.
struct WindowSlice {
  FeatureVector features;
  TimeMs window_end = 0;    // exclusive end of the window
  TimeMs last_record = -1;  // time of the window's last frame (-1: empty)
  std::size_t frames = 0;

  bool operator==(const WindowSlice&) const = default;
};

class StreamingWindower {
 public:
  /// Windows are anchored at `session_start`, which is also the origin of
  /// the cumulative-time feature.
  StreamingWindower(TimeMs session_start, const WindowConfig& config);

  /// Feeds one record (times must be non-decreasing). Windows the record
  /// closes by crossing their end are appended to `out` in window order.
  /// Records before `session_start` are skipped.
  void feed(const sniffer::TraceRecord& r, std::vector<WindowSlice>& out);

  /// Closes every window whose end is <= `watermark` — callable once all
  /// records with time < watermark have been fed (the daemon's batch tick).
  void close_until(TimeMs watermark, std::vector<WindowSlice>& out);

  /// End of session: emits up to and including the window holding the last
  /// record. Buffered trailing empty windows are discarded, so a session
  /// never ends in an empty window. The windower must not be fed afterwards.
  void finish(std::vector<WindowSlice>& out);

 private:
  void close_window(std::vector<WindowSlice>& out);
  WindowSlice make_slice() const;
  void reset_window();

  WindowConfig config_;
  TimeMs session_start_;
  TimeMs ws_;                      // current window start
  TimeMs prev_frame_time_ = -1;    // last frame before the current window
  TimeMs last_time_ = -1;          // last accepted record overall
  std::size_t accepted_ = 0;

  // Interior empty windows (include_empty only): buffered here and flushed
  // ahead of the next non-empty window, so trailing empties can be dropped
  // at finish().
  std::vector<WindowSlice> pending_empty_;

  // --- per-window accumulators (reset each window) -----------------------
  RunningStats size_all_, size_dl_, size_ul_, inter_;
  int dl_count_ = 0, ul_count_ = 0;
  long long dl_bytes_ = 0, ul_bytes_ = 0;
  std::size_t active_ms_ = 0;      // distinct record times (input is sorted)
  std::unordered_set<lte::Rnti> rntis_;  // membership/size only, never iterated
  int tiny_ = 0, small_ = 0, mid_ = 0, large_ = 0, huge_ = 0;
  std::vector<double> sizes_;      // frame sizes, for min/median
  mutable std::vector<double> median_scratch_;
  TimeMs win_last_ = -1;           // last frame time within the window
};

/// Extracts one feature vector per (non-empty, by default) window by
/// feeding the whole trace through a StreamingWindower. `session_start`
/// anchors window 0 and the cumulative-time feature. Throws
/// std::invalid_argument unless `trace` is time-ordered.
std::vector<FeatureVector> extract_windows(const sniffer::Trace& trace, TimeMs session_start,
                                           const WindowConfig& config);

/// Convenience: extract and append to `dataset` with the given label.
void append_windows(Dataset& dataset, const sniffer::Trace& trace, TimeMs session_start,
                    const WindowConfig& config, int label);

}  // namespace ltefp::features
