#include "features/window.hpp"

#include <algorithm>
#include <stdexcept>

namespace ltefp::features {

std::vector<std::string> feature_names() {
  return {"frame_count",    "total_bytes",   "mean_size",     "std_size",
          "min_size",       "max_size",      "mean_interarrival", "std_interarrival",
          "cumulative_time", "dl_frame_frac", "dl_byte_frac",  "dl_count",
          "ul_count",       "active_ms_frac", "rnti_count",    "gap_before_ms",
          "size_frac_tiny", "size_frac_small", "size_frac_mid", "size_frac_large",
          "size_frac_huge", "median_size"};
}

StreamingWindower::StreamingWindower(TimeMs session_start, const WindowConfig& config)
    : config_(config), session_start_(session_start), ws_(session_start) {
  if (config_.window_ms < 1) {
    throw std::invalid_argument("StreamingWindower: window_ms must be >= 1");
  }
}

void StreamingWindower::feed(const sniffer::TraceRecord& r, std::vector<WindowSlice>& out) {
  if (!lte::direction_passes(config_.link, r.direction)) return;
  // Records before the session anchor are never windowed and leave the
  // interarrival seam untouched.
  if (r.time < session_start_) return;

  close_until(r.time, out);

  // Interarrival seam: the previous frame is the last frame in this window,
  // or — for the window's first frame — the last frame of the previous
  // non-empty window, which captures cross-window gaps (long chat lulls,
  // streaming burst spacing).
  const TimeMs prev = win_last_ >= 0 ? win_last_ : prev_frame_time_;
  if (prev >= 0) inter_.add(static_cast<double>(r.time - prev));

  size_all_.add(r.tb_bytes);
  if (r.direction == lte::Direction::kDownlink) {
    size_dl_.add(r.tb_bytes);
    ++dl_count_;
    dl_bytes_ += r.tb_bytes;
  } else {
    size_ul_.add(r.tb_bytes);
    ++ul_count_;
    ul_bytes_ += r.tb_bytes;
  }
  if (r.time != win_last_) ++active_ms_;  // sorted input: duplicates are adjacent
  rntis_.insert(r.rnti);
  if (r.tb_bytes <= 50) {
    ++tiny_;
  } else if (r.tb_bytes <= 150) {
    ++small_;
  } else if (r.tb_bytes <= 400) {
    ++mid_;
  } else if (r.tb_bytes <= 1000) {
    ++large_;
  } else {
    ++huge_;
  }
  sizes_.push_back(static_cast<double>(r.tb_bytes));
  win_last_ = r.time;
  last_time_ = r.time;
  ++accepted_;
}

void StreamingWindower::close_until(TimeMs watermark, std::vector<WindowSlice>& out) {
  while (ws_ + config_.window_ms <= watermark) {
    if (sizes_.empty() && !config_.include_empty) {
      // Closing an empty window emits nothing and leaves the accumulators
      // as they are (reset), so a whole idle run closes in one step.
      ws_ += (watermark - ws_) / config_.window_ms * config_.window_ms;
      return;
    }
    close_window(out);
  }
}

void StreamingWindower::finish(std::vector<WindowSlice>& out) {
  // The window containing the last frame is the final one emitted.
  while (accepted_ > 0 && ws_ <= last_time_) close_window(out);
  pending_empty_.clear();
}

WindowSlice StreamingWindower::make_slice() const {
  WindowSlice slice;
  slice.window_end = ws_ + config_.window_ms;
  slice.last_record = win_last_;
  slice.frames = sizes_.size();

  const double total_frames = static_cast<double>(sizes_.size());
  const double total_bytes = static_cast<double>(dl_bytes_ + ul_bytes_);
  const double gap_before =
      prev_frame_time_ >= 0 ? static_cast<double>(ws_ - prev_frame_time_)
                            : static_cast<double>(ws_ - session_start_);

  FeatureVector f(kFeatureCount, 0.0);
  f[0] = total_frames;
  f[1] = total_bytes;
  f[2] = size_all_.mean();
  f[3] = size_all_.stddev();
  f[4] = sizes_.empty() ? 0.0 : size_all_.min();
  f[5] = size_all_.max();
  f[6] = sizes_.size() >= 2 ? inter_.mean() : static_cast<double>(config_.window_ms);
  f[7] = inter_.stddev();
  f[8] = static_cast<double>(ws_ - session_start_) / 1000.0;  // cumulative time (s)
  f[9] = total_frames > 0 ? dl_count_ / total_frames : 0.0;
  f[10] = total_bytes > 0 ? static_cast<double>(dl_bytes_) / total_bytes : 0.0;
  f[11] = static_cast<double>(dl_count_);
  f[12] = static_cast<double>(ul_count_);
  f[13] = static_cast<double>(active_ms_) / static_cast<double>(config_.window_ms);
  f[14] = static_cast<double>(rntis_.size());
  f[15] = std::min(gap_before, 60'000.0);  // bounded pre-window silence
  // Size histogram: fraction of frames per TBS band. Means/stddevs blur
  // multimodal windows (e.g. "one big message + one tiny ack"); the band
  // fractions preserve the mixture, which separates same-category apps.
  if (!sizes_.empty()) {
    f[16] = tiny_ / total_frames;
    f[17] = small_ / total_frames;
    f[18] = mid_ / total_frames;
    f[19] = large_ / total_frames;
    f[20] = huge_ / total_frames;
    median_scratch_.assign(sizes_.begin(), sizes_.end());
    std::nth_element(median_scratch_.begin(),
                     median_scratch_.begin() +
                         static_cast<std::ptrdiff_t>(median_scratch_.size() / 2),
                     median_scratch_.end());
    f[21] = median_scratch_[median_scratch_.size() / 2];  // median frame size
  }
  slice.features = std::move(f);
  return slice;
}

void StreamingWindower::close_window(std::vector<WindowSlice>& out) {
  if (!sizes_.empty()) {
    // Buffered interior empties precede this window.
    for (auto& e : pending_empty_) out.push_back(std::move(e));
    pending_empty_.clear();
    out.push_back(make_slice());
    prev_frame_time_ = win_last_;
  } else if (config_.include_empty) {
    pending_empty_.push_back(make_slice());
  }
  ws_ += config_.window_ms;
  reset_window();
}

void StreamingWindower::reset_window() {
  size_all_ = RunningStats();
  size_dl_ = RunningStats();
  size_ul_ = RunningStats();
  inter_ = RunningStats();
  dl_count_ = ul_count_ = 0;
  dl_bytes_ = ul_bytes_ = 0;
  active_ms_ = 0;
  rntis_.clear();
  tiny_ = small_ = mid_ = large_ = huge_ = 0;
  sizes_.clear();
  win_last_ = -1;
}

std::vector<FeatureVector> extract_windows(const sniffer::Trace& trace, TimeMs session_start,
                                           const WindowConfig& config) {
  const auto by_time = [](const sniffer::TraceRecord& a, const sniffer::TraceRecord& b) {
    return a.time < b.time;
  };
  if (!std::is_sorted(trace.begin(), trace.end(), by_time)) {
    throw std::invalid_argument("extract_windows: trace records are not in time order");
  }
  StreamingWindower windower(session_start, config);
  std::vector<WindowSlice> slices;
  for (const auto& r : trace) windower.feed(r, slices);
  windower.finish(slices);

  std::vector<FeatureVector> out;
  out.reserve(slices.size());
  for (auto& s : slices) out.push_back(std::move(s.features));
  return out;
}

void append_windows(Dataset& dataset, const sniffer::Trace& trace, TimeMs session_start,
                    const WindowConfig& config, int label) {
  if (dataset.feature_names.empty()) dataset.feature_names = feature_names();
  for (auto& f : extract_windows(trace, session_start, config)) {
    dataset.add(std::move(f), label);
  }
}

}  // namespace ltefp::features
