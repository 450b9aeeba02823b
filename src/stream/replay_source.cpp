#include "stream/replay_source.hpp"

#include <algorithm>

#include "tracestore/corpus.hpp"

namespace ltefp::stream {

auto ReplaySource::later() const {
  return [this](std::size_t a, std::size_t b) {
    const StreamRecord& ra = streams_[a].head;
    const StreamRecord& rb = streams_[b].head;
    if (ra.record.time != rb.record.time) return ra.record.time > rb.record.time;
    return ra.lane > rb.lane;
  };
}

ReplaySource::ReplaySource(const std::string& directory) {
  const tracestore::Corpus corpus = tracestore::Corpus::open(directory);
  streams_.reserve(corpus.entries().size());
  for (const auto& entry : corpus.entries()) {
    LaneStream s;
    s.lane = static_cast<std::uint32_t>(entry.seq);
    s.reader = std::make_unique<tracestore::MappedReader>(corpus.open_entry(entry));
    s.cursor.emplace(s.reader->cursor());
    streams_.push_back(std::move(s));
  }
  heap_.reserve(streams_.size());
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    if (refill(streams_[i])) heap_.push_back(i);
  }
  std::make_heap(heap_.begin(), heap_.end(), later());
}

ReplaySource::~ReplaySource() = default;

bool ReplaySource::refill(LaneStream& s) {
  if (!s.cursor->next(s.head.record)) return false;
  s.head.lane = s.lane;
  return true;
}

bool ReplaySource::next(StreamRecord& out) {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), later());
  const std::size_t idx = heap_.back();
  out = streams_[idx].head;
  if (refill(streams_[idx])) {
    std::push_heap(heap_.begin(), heap_.end(), later());
  } else {
    heap_.pop_back();
  }
  ++emitted_;
  return true;
}

}  // namespace ltefp::stream
