// Decorators the benchmark wraps around library interfaces, so it can time
// and trace the attack path without touching src/. Every probe is also
// useful untraced: ProbedSource/ProbedSink measure decision latency, and
// ProbedSink keeps the verdict stream for the output checks.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "lte/observer.hpp"
#include "ml/classifier.hpp"
#include "stream/daemon.hpp"
#include "stream/replay_source.hpp"
#include "stream/verdict.hpp"
#include "trace.hpp"

namespace e2e {

/// Watermark batch of a sim time (the daemon's 128 ms grid).
std::uint64_t batch_of(std::int64_t sim_ms);

/// Wraps the daemon's source. Stamps the wall time at which the first
/// record at or past each sim time was yielded, traces the driver's time
/// inside next() as "stream.source" (one coalesced span per watermark
/// batch) and can keep every yielded record for a record-then-replay check.
class ProbedSource final : public ltefp::stream::StreamSource {
 public:
  ProbedSource(ltefp::stream::StreamSource& inner, bool keep_records);

  bool next(ltefp::stream::StreamRecord& out) override;

  /// Wall ns of the first yield whose record time is >= `sim_ms` (the end
  /// of stream when no record reached it). Calls must come in
  /// non-decreasing `sim_ms` order; earlier stamps are discarded.
  std::int64_t first_yield_at_or_after(std::int64_t sim_ms);

  /// Watermark batch of the newest record yielded (read by other probes).
  const std::atomic<std::uint64_t>& batch() const { return batch_; }
  std::vector<ltefp::stream::StreamRecord>& kept() { return kept_; }

 private:
  ltefp::stream::StreamSource& inner_;
  bool keep_;
  std::vector<ltefp::stream::StreamRecord> kept_;
  std::deque<std::pair<std::int64_t, std::int64_t>> stamps_;  // (sim ms, wall ns)
  std::int64_t last_time_ = -1;
  std::atomic<std::uint64_t> batch_{0};
  Coalescer span_{"stream.source"};
};

/// Wraps the verdict sink: decision latency per verdict (wall ms from the
/// source's first yield at or past the verdict's time to its emit), the
/// verdict stream itself, and "stream.sink" spans.
class ProbedSink final : public ltefp::stream::VerdictSink {
 public:
  explicit ProbedSink(ProbedSource& source) : source_(source) {}

  void emit(const ltefp::stream::VerdictRecord& v) override;
  /// Ends the last coalesced span (call after the daemon returns).
  void finish();

  const std::vector<ltefp::stream::VerdictRecord>& verdicts() const { return verdicts_; }
  const std::vector<double>& latency_ms() const { return latency_ms_; }

 private:
  ProbedSource& source_;
  std::vector<ltefp::stream::VerdictRecord> verdicts_;
  std::vector<double> latency_ms_;
  std::uint64_t group_ = 0;
  Coalescer span_{"stream.sink"};
};

/// Classifier decorator handed to the daemon: counts predicted rows and
/// traces each batch prediction as "ml.predict". Only the trained model's
/// const paths are forwarded; fit() is refused.
class ProbedClassifier final : public ltefp::ml::Classifier {
 public:
  ProbedClassifier(const ltefp::ml::Classifier& inner, const std::atomic<std::uint64_t>& batch)
      : inner_(inner), batch_(batch) {}

  void fit(const ltefp::ml::Dataset& train) override;
  int predict(const ltefp::ml::FeatureVector& x) const override { return inner_.predict(x); }
  std::vector<int> predict_rows(const ltefp::features::DatasetMatrix& data,
                                std::span<const std::uint32_t> rows) const override;
  std::vector<double> predict_proba(const ltefp::ml::FeatureVector& x) const override {
    return inner_.predict_proba(x);
  }
  const char* name() const override { return inner_.name(); }

  std::size_t rows() const { return rows_.load(std::memory_order_relaxed); }

 private:
  const ltefp::ml::Classifier& inner_;
  const std::atomic<std::uint64_t>& batch_;
  mutable std::atomic<std::size_t> rows_{0};
};

/// Wraps one cell's sniffer: every callback is timed into the shared
/// "sniffer.decode" coalescer (the decode work the eNB step triggers).
class ProbedObserver final : public ltefp::lte::PdcchObserver {
 public:
  ProbedObserver(ltefp::lte::PdcchObserver& inner, Coalescer& decode)
      : inner_(inner), decode_(decode) {}

  void on_subframe(const ltefp::lte::PdcchSubframe& s) override;
  void on_rach(const ltefp::lte::RachPreamble& p) override;
  void on_rar(const ltefp::lte::RandomAccessResponse& r) override;
  void on_rrc_request(const ltefp::lte::RrcConnectionRequest& r) override;
  void on_rrc_setup(const ltefp::lte::RrcConnectionSetup& s) override;
  void on_rrc_release(const ltefp::lte::RrcConnectionRelease& r) override;

 private:
  ltefp::lte::PdcchObserver& inner_;
  Coalescer& decode_;
};

/// The daemon's stream.* counters plus the rows the model predicted.
void record_stream_counters(Recorder& rec, const ltefp::stream::StreamStats& stats,
                            std::size_t predicted_rows);

}  // namespace e2e
