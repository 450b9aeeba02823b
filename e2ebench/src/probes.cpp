#include "probes.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace e2e {

using namespace ltefp;

std::uint64_t batch_of(std::int64_t sim_ms) {
  return static_cast<std::uint64_t>(sim_ms / stream::kSubframeBatchMs);
}

ProbedSource::ProbedSource(stream::StreamSource& inner, bool keep_records)
    : inner_(inner), keep_(keep_records) {}

bool ProbedSource::next(stream::StreamRecord& out) {
  const std::int64_t t = span_.enter();
  const bool ok = inner_.next(out);
  span_.exit(t);
  if (!ok) {
    stamps_.emplace_back(std::numeric_limits<std::int64_t>::max(), now_ns());
    span_.flush(batch_.load(std::memory_order_relaxed));
    return false;
  }
  const std::int64_t time = out.record.time;
  if (time > last_time_) {
    stamps_.emplace_back(time, now_ns());
    last_time_ = time;
    const std::uint64_t batch = batch_of(time);
    if (batch != batch_.load(std::memory_order_relaxed)) {
      span_.flush(batch_.load(std::memory_order_relaxed));
      batch_.store(batch, std::memory_order_relaxed);
    }
  }
  if (keep_) kept_.push_back(out);
  return true;
}

std::int64_t ProbedSource::first_yield_at_or_after(std::int64_t sim_ms) {
  while (!stamps_.empty() && stamps_.front().first < sim_ms) stamps_.pop_front();
  // The daemon emits a verdict only after a record at or past its time (or
  // the end of stream) was pulled, so a stamp always remains.
  if (stamps_.empty()) throw std::logic_error("verdict emitted before its time was reached");
  return stamps_.front().second;
}

void ProbedSink::emit(const stream::VerdictRecord& v) {
  const std::int64_t t = span_.enter();
  const std::int64_t now = t != 0 ? t : now_ns();
  latency_ms_.push_back(static_cast<double>(now - source_.first_yield_at_or_after(v.time)) / 1e6);
  verdicts_.push_back(v);
  span_.exit(t);
  const std::uint64_t batch = batch_of(v.time);
  if (batch != group_) {
    span_.flush(group_);
    group_ = batch;
  }
}

void ProbedSink::finish() { span_.flush(group_); }

void ProbedClassifier::fit(const ml::Dataset&) {
  throw std::logic_error("ProbedClassifier wraps an already trained model");
}

std::vector<int> ProbedClassifier::predict_rows(const features::DatasetMatrix& data,
                                                std::span<const std::uint32_t> rows) const {
  const ScopedSpan span("ml.predict", batch_.load(std::memory_order_relaxed));
  rows_.fetch_add(rows.size(), std::memory_order_relaxed);
  return inner_.predict_rows(data, rows);
}

void record_stream_counters(Recorder& rec, const stream::StreamStats& stats,
                            std::size_t predicted_rows) {
  rec.count("stream.batches", "count", static_cast<double>(stats.batches));
  rec.count("stream.sessions", "count", static_cast<double>(stats.sessions));
  rec.count("stream.window_verdicts", "count", static_cast<double>(stats.window_verdicts));
  rec.count("stream.final_verdicts", "count", static_cast<double>(stats.final_verdicts));
  std::size_t high = 0;
  for (const std::size_t h : stats.queue_high_water) high = std::max(high, h);
  rec.count("stream.queue_high_water", "count", static_cast<double>(high));
  rec.count("ml.predict_rows", "count", static_cast<double>(predicted_rows));
}

void ProbedObserver::on_subframe(const lte::PdcchSubframe& s) {
  const std::int64_t t = decode_.enter();
  inner_.on_subframe(s);
  decode_.exit(t);
}

void ProbedObserver::on_rach(const lte::RachPreamble& p) {
  const std::int64_t t = decode_.enter();
  inner_.on_rach(p);
  decode_.exit(t);
}

void ProbedObserver::on_rar(const lte::RandomAccessResponse& r) {
  const std::int64_t t = decode_.enter();
  inner_.on_rar(r);
  decode_.exit(t);
}

void ProbedObserver::on_rrc_request(const lte::RrcConnectionRequest& r) {
  const std::int64_t t = decode_.enter();
  inner_.on_rrc_request(r);
  decode_.exit(t);
}

void ProbedObserver::on_rrc_setup(const lte::RrcConnectionSetup& s) {
  const std::int64_t t = decode_.enter();
  inner_.on_rrc_setup(s);
  decode_.exit(t);
}

void ProbedObserver::on_rrc_release(const lte::RrcConnectionRelease& r) {
  const std::int64_t t = decode_.enter();
  inner_.on_rrc_release(r);
  decode_.exit(t);
}

}  // namespace e2e
