#include "stream/session.hpp"

#include <algorithm>
#include <stdexcept>

namespace ltefp::stream {

SessionAssembler::SessionAssembler(const features::WindowConfig& window, TimeMs idle_cutoff)
    : window_(window), idle_cutoff_(idle_cutoff) {
  // Checked here, on the constructing thread: daemon workers build their
  // windowers later and must not throw.
  if (window_.window_ms < 1) {
    throw std::invalid_argument("SessionAssembler: window_ms must be >= 1");
  }
  if (idle_cutoff_ <= window_.window_ms) {
    throw std::invalid_argument("SessionAssembler: idle cutoff must exceed the window");
  }
}

void SessionAssembler::append_windows(std::uint32_t lane_id, const Lane& lane,
                                      std::vector<features::WindowSlice>& slices,
                                      std::vector<PendingWindow>& windows) {
  for (auto& s : slices) {
    PendingWindow w;
    w.lane = lane_id;
    w.cell = lane.cell;
    w.rnti = lane.rnti;
    w.session = lane.session;
    w.window_end = s.window_end;
    w.last_record = s.last_record;
    w.features = std::move(s.features);
    windows.push_back(std::move(w));
  }
  slices.clear();
}

void SessionAssembler::close_session(std::uint32_t lane_id, Lane& lane,
                                     std::vector<PendingWindow>& windows,
                                     std::vector<SessionEnd>& ends) {
  scratch_.clear();
  lane.windower->finish(scratch_);
  append_windows(lane_id, lane, scratch_, windows);
  ends.push_back(SessionEnd{lane_id, lane.cell, lane.rnti, lane.session,
                            lane.last_raw + idle_cutoff_});
  lane.windower.reset();
}

void SessionAssembler::feed(const StreamRecord& r, std::vector<PendingWindow>& windows,
                            std::vector<SessionEnd>& ends) {
  Lane& lane = lanes_[r.lane];
  const bool was_live = lane.windower.has_value();
  if (was_live && r.record.time - lane.last_raw >= idle_cutoff_) {
    // Cut and reopened below: the lane keeps its place in live_.
    close_session(r.lane, lane, windows, ends);
  }
  if (!lane.windower) {
    lane.session = lane.next_session++;
    lane.cell = r.record.cell;
    lane.rnti = r.record.rnti;
    lane.windower.emplace(r.record.time, window_);
    ++sessions_;
    if (!was_live) {
      const auto at = std::lower_bound(
          live_.begin(), live_.end(), r.lane,
          [](const std::pair<std::uint32_t, Lane*>& e, std::uint32_t id) { return e.first < id; });
      live_.insert(at, {r.lane, &lane});
    }
  }
  scratch_.clear();
  lane.windower->feed(r.record, scratch_);
  append_windows(r.lane, lane, scratch_, windows);
  lane.last_raw = r.record.time;
  ++records_;
}

void SessionAssembler::advance(TimeMs watermark, std::vector<PendingWindow>& windows,
                               std::vector<SessionEnd>& ends) {
  // Cut lanes leave live_; the rest are compacted forward in order.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < live_.size(); ++i) {
    const auto [lane_id, lane] = live_[i];
    if (lane->last_raw + idle_cutoff_ <= watermark) {
      close_session(lane_id, *lane, windows, ends);
      continue;
    }
    scratch_.clear();
    lane->windower->close_until(watermark, scratch_);
    append_windows(lane_id, *lane, scratch_, windows);
    live_[kept++] = live_[i];
  }
  live_.resize(kept);
}

void SessionAssembler::finish(std::vector<PendingWindow>& windows,
                              std::vector<SessionEnd>& ends) {
  for (const auto& [lane_id, lane] : live_) close_session(lane_id, *lane, windows, ends);
  live_.clear();
}

std::vector<std::uint32_t> SessionAssembler::live_lanes() const {
  std::vector<std::uint32_t> ids;
  ids.reserve(live_.size());
  for (const auto& entry : live_) ids.push_back(entry.first);
  return ids;
}

}  // namespace ltefp::stream
