// Incremental session assembly: the per-victim state machine between the
// decode queues and the inference stage.
//
// Each victim stream ("lane" — under replay, the corpus seq) carries a
// sequence of sessions separated by idle gaps of at least
// attacks::kSessionIdleCutoffMs. The assembler mirrors what batch
// collection produces implicitly: a session starts at its first record
// (the classify_trace session_start anchor) and ends once the gap since
// its last record reaches the cutoff — detected either by the next record
// arriving late or by the watermark advancing past last + cutoff. Windows
// stream out of the per-session StreamingWindower as they close, so
// feature extraction never rescans the trace.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/sim_time.hpp"
#include "features/window.hpp"
#include "lte/types.hpp"
#include "sniffer/trace.hpp"

namespace ltefp::stream {

/// One decoded record tagged with its victim stream.
struct StreamRecord {
  std::uint32_t lane = 0;
  sniffer::TraceRecord record;

  bool operator==(const StreamRecord&) const = default;
};

/// A closed window awaiting classification, with the session coordinates
/// the verdict will carry.
struct PendingWindow {
  std::uint32_t lane = 0;
  lte::CellId cell = 0;
  lte::Rnti rnti = 0;          // session's first RNTI binding
  std::uint32_t session = 0;   // per-lane session index
  TimeMs window_end = 0;
  TimeMs last_record = -1;     // last frame in the window (-1: empty window)
  features::FeatureVector features;

  bool operator==(const PendingWindow&) const = default;
};

/// A session that has ended (idle cutoff reached or stream finished).
struct SessionEnd {
  std::uint32_t lane = 0;
  lte::CellId cell = 0;
  lte::Rnti rnti = 0;
  std::uint32_t session = 0;
  TimeMs end_time = 0;  // last record time + idle cutoff

  bool operator==(const SessionEnd&) const = default;
};

class SessionAssembler {
 public:
  /// `idle_cutoff` must exceed the window length, so a session always ends
  /// strictly after its last window closes.
  SessionAssembler(const features::WindowConfig& window, TimeMs idle_cutoff);

  /// Feeds one record (times non-decreasing per lane — and globally, when
  /// driven from the merged stream). May first end the lane's previous
  /// session if the record arrives after the idle cutoff.
  void feed(const StreamRecord& r, std::vector<PendingWindow>& windows,
            std::vector<SessionEnd>& ends);

  /// Watermark tick: every record with time < `watermark` has been fed.
  /// Closes windows ending at or before the watermark and cuts sessions
  /// whose idle gap has provably elapsed. Only lanes with an open session
  /// are visited, in lane order; a tick with none costs nothing.
  void advance(TimeMs watermark, std::vector<PendingWindow>& windows,
               std::vector<SessionEnd>& ends);

  /// End of stream: flushes every live session (its end_time still uses
  /// last record + cutoff, keeping verdict times source-determined).
  void finish(std::vector<PendingWindow>& windows, std::vector<SessionEnd>& ends);

  std::size_t records() const { return records_; }
  std::size_t sessions_started() const { return sessions_; }
  /// The lanes with an open session, ascending.
  std::vector<std::uint32_t> live_lanes() const;

 private:
  struct Lane {
    std::uint32_t next_session = 0;
    std::uint32_t session = 0;
    lte::CellId cell = 0;
    lte::Rnti rnti = 0;
    TimeMs last_raw = -1;  // last record of the live session, pre-filter
    std::optional<features::StreamingWindower> windower;  // engaged while live
  };

  void append_windows(std::uint32_t lane_id, const Lane& lane,
                      std::vector<features::WindowSlice>& slices,
                      std::vector<PendingWindow>& windows);
  void close_session(std::uint32_t lane_id, Lane& lane,
                     std::vector<PendingWindow>& windows, std::vector<SessionEnd>& ends);

  features::WindowConfig window_;
  TimeMs idle_cutoff_;
  // Every lane ever fed (its session counter outlives its sessions). Map
  // nodes never move, so live_ can point into it.
  std::map<std::uint32_t, Lane> lanes_;
  // The lanes with an open session, ascending by lane id: advance() and
  // finish() walk these alone, in lane order, so emission order is
  // deterministic and idle lanes cost nothing per watermark.
  std::vector<std::pair<std::uint32_t, Lane*>> live_;
  std::vector<features::WindowSlice> scratch_;
  std::size_t records_ = 0;
  std::size_t sessions_ = 0;
};

}  // namespace ltefp::stream
