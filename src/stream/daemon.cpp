#include "stream/daemon.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include "attacks/pipeline.hpp"
#include "common/parallel.hpp"
#include "common/spsc.hpp"
#include "features/matrix.hpp"

namespace ltefp::stream {
namespace {

/// In-band queue item: a record, a watermark marker, or end-of-stream.
struct Item {
  enum class Kind : std::uint8_t { kRecord, kWatermark, kFlush };
  Kind kind = Kind::kRecord;
  StreamRecord rec;
  TimeMs watermark = 0;
};

/// Strict total order over verdicts: times strictly increase within a
/// lane, so (time, cell, lane) never ties across distinct verdicts.
bool verdict_before(const VerdictRecord& a, const VerdictRecord& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.cell != b.cell) return a.cell < b.cell;
  return a.lane < b.lane;
}

/// Per-session vote tallies are keyed by (lane, session).
using VoteKey = std::pair<std::uint32_t, std::uint32_t>;

struct Worker {
  explicit Worker(const StreamConfig& config)
      : queue(config.queue_capacity),
        assembler(config.window, config.idle_cutoff),
        latency(Histogram::linear(0.0, static_cast<double>(kSubframeBatchMs), 64)) {}

  SpscQueue<Item> queue;
  SessionAssembler assembler;

  // Published state (worker writes, driver reads). The outbox is guarded
  // by m; has_outbox says it holds verdicts, so the driver locks only a
  // worker with something to hand over. acked is stored after the batch's
  // verdicts are in the outbox, so a driver that loads it first and the
  // outbox second has every verdict at or below it.
  std::mutex m;
  std::vector<VerdictRecord> outbox;
  std::atomic<bool> has_outbox{false};
  std::atomic<TimeMs> acked{-1};

  // Worker-private until join.
  Histogram latency;
  std::size_t window_verdicts = 0;
  std::size_t final_verdicts = 0;
  std::map<VoteKey, attacks::VoteTally> votes;
  std::vector<PendingWindow> pending_windows;
  std::vector<SessionEnd> pending_ends;
  std::vector<VerdictRecord> batch_out;
  std::vector<std::uint32_t> batch_rows;  // 0, 1, 2, ...: grown, never shrunk
  std::thread thread;
};

}  // namespace

StreamDaemon::StreamDaemon(const ml::Classifier& model, StreamConfig config)
    : model_(model), config_(std::move(config)) {
  if (config_.batch_ms < 1) throw std::invalid_argument("StreamDaemon: batch_ms must be >= 1");
  if (config_.idle_cutoff <= config_.window.window_ms) {
    throw std::invalid_argument("StreamDaemon: idle_cutoff must exceed the window");
  }
  if (config_.workers < 0) throw std::invalid_argument("StreamDaemon: workers must be >= 0");
  // Queue capacity is validated by SpscQueue at run().
}

namespace {

/// The verdict `tally` gives at `time`, for the session `at` (a
/// PendingWindow or a SessionEnd) belongs to.
template <typename SessionCoords>
VerdictRecord make_verdict(const SessionCoords& at, TimeMs time, const attacks::VoteTally& tally,
                           bool final_verdict) {
  const attacks::TraceVerdict tv = tally.verdict();
  VerdictRecord v;
  v.time = time;
  v.cell = at.cell;
  v.lane = at.lane;
  v.rnti = at.rnti;
  v.session = at.session;
  v.app = tv.app;
  v.confidence = tv.confidence;
  v.windows = static_cast<std::uint32_t>(tv.window_count);
  v.final_verdict = final_verdict;
  return v;
}

/// Classifies one batch's pending windows, folds them into the session
/// votes, appends the batch's verdicts (sorted), and publishes them with
/// the acknowledged watermark.
void process_batch(Worker& w, const ml::Classifier& model, const StreamConfig& config,
                   TimeMs ack) {
  if (w.pending_windows.empty() && w.pending_ends.empty()) {
    // Nothing closed in this interval (the common case for a worker whose
    // lanes are idle): acknowledge without a sort or a lock.
    w.acked.store(ack, std::memory_order_release);
    return;
  }
  w.batch_out.clear();
  if (!w.pending_windows.empty()) {
    // The batch's column-major matrix, written straight from the windows.
    const std::size_t n = w.pending_windows.size();
    std::vector<double> values(n * features::kFeatureCount);
    for (std::size_t i = 0; i < n; ++i) {
      const features::FeatureVector& x = w.pending_windows[i].features;
      for (std::size_t f = 0; f < features::kFeatureCount; ++f) values[f * n + i] = x[f];
    }
    const auto matrix =
        features::DatasetMatrix::from_columns(std::move(values), n, features::kFeatureCount);
    while (w.batch_rows.size() < n) {
      w.batch_rows.push_back(static_cast<std::uint32_t>(w.batch_rows.size()));
    }
    const std::vector<int> predictions =
        model.predict_rows(matrix, std::span<const std::uint32_t>(w.batch_rows.data(), n));
    for (std::size_t i = 0; i < w.pending_windows.size(); ++i) {
      const PendingWindow& pw = w.pending_windows[i];
      attacks::VoteTally& tally = w.votes[VoteKey{pw.lane, pw.session}];
      tally.add(predictions[i]);
      if (pw.last_record >= 0) {
        w.latency.add(static_cast<double>(pw.window_end - pw.last_record));
      }
      if (!config.emit_window_verdicts) continue;
      w.batch_out.push_back(make_verdict(pw, pw.window_end, tally, /*final_verdict=*/false));
      ++w.window_verdicts;
    }
  }
  for (const SessionEnd& e : w.pending_ends) {
    // A session whose records were all link-filtered away has no tally;
    // its final verdict is the empty vote's.
    attacks::VoteTally tally;
    const auto it = w.votes.find(VoteKey{e.lane, e.session});
    if (it != w.votes.end()) {
      tally = it->second;
      w.votes.erase(it);
    }
    w.batch_out.push_back(make_verdict(e, e.end_time, tally, /*final_verdict=*/true));
    ++w.final_verdicts;
  }
  w.pending_windows.clear();
  w.pending_ends.clear();
  if (!w.batch_out.empty()) {
    std::sort(w.batch_out.begin(), w.batch_out.end(), verdict_before);
    const std::lock_guard<std::mutex> lock(w.m);
    w.outbox.insert(w.outbox.end(), w.batch_out.begin(), w.batch_out.end());
    w.has_outbox.store(true, std::memory_order_relaxed);
  }
  w.acked.store(ack, std::memory_order_release);
}

void worker_main(Worker& w, const ml::Classifier& model, const StreamConfig& config) {
  Item item;
  for (;;) {
    w.queue.pop(item);
    switch (item.kind) {
      case Item::Kind::kRecord:
        w.assembler.feed(item.rec, w.pending_windows, w.pending_ends);
        break;
      case Item::Kind::kWatermark:
        w.assembler.advance(item.watermark, w.pending_windows, w.pending_ends);
        process_batch(w, model, config, item.watermark);
        break;
      case Item::Kind::kFlush:
        w.assembler.finish(w.pending_windows, w.pending_ends);
        process_batch(w, model, config, std::numeric_limits<TimeMs>::max());
        return;
    }
  }
}

/// Driver-side progressive merge state: verdicts pulled from a worker's
/// outbox, consumed front to back.
struct MergeLane {
  std::vector<VerdictRecord> pending;
  std::size_t pos = 0;
};

}  // namespace

StreamStats StreamDaemon::run(StreamSource& source, VerdictSink& sink) {
  const int n = config_.workers > 0 ? config_.workers : thread_count();
  std::vector<std::unique_ptr<Worker>> workers;
  workers.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) workers.push_back(std::make_unique<Worker>(config_));

  StreamStats stats;
  std::vector<MergeLane> merge(workers.size());

  // Pulls newly published verdicts from every worker, then emits the merged
  // prefix whose times are <= the minimum acknowledged watermark. The merge
  // order is the strict total (time, cell, lane) order, so WHEN batches are
  // drained affects only emission batching, never the verdict sequence.
  const auto drain = [&] {
    TimeMs min_acked = std::numeric_limits<TimeMs>::max();
    for (std::size_t i = 0; i < workers.size(); ++i) {
      Worker& w = *workers[i];
      // The ack first: its release store published every verdict at or
      // below it, outbox flag included.
      min_acked = std::min(min_acked, w.acked.load(std::memory_order_acquire));
      if (!w.has_outbox.load(std::memory_order_relaxed)) continue;
      const std::lock_guard<std::mutex> lock(w.m);
      merge[i].pending.insert(merge[i].pending.end(), w.outbox.begin(), w.outbox.end());
      w.outbox.clear();
      w.has_outbox.store(false, std::memory_order_relaxed);
    }
    for (;;) {
      std::size_t best = merge.size();
      for (std::size_t i = 0; i < merge.size(); ++i) {
        if (merge[i].pos >= merge[i].pending.size()) continue;
        const VerdictRecord& head = merge[i].pending[merge[i].pos];
        if (head.time > min_acked) continue;
        if (best == merge.size() ||
            verdict_before(head, merge[best].pending[merge[best].pos])) {
          best = i;
        }
      }
      if (best == merge.size()) break;
      sink.emit(merge[best].pending[merge[best].pos++]);
    }
    // Drop the emitted prefix once it is half the buffer or more. A lane
    // then holds at most about twice the verdicts past the minimum
    // acknowledged watermark, also when busy workers never let it run
    // dry, and each verdict is moved O(1) times on average.
    for (auto& lane : merge) {
      if (2 * lane.pos < lane.pending.size()) continue;
      lane.pending.erase(lane.pending.begin(),
                         lane.pending.begin() + static_cast<std::ptrdiff_t>(lane.pos));
      lane.pos = 0;
    }
  };

  for (auto& w : workers) {
    Worker* raw = w.get();
    w->thread = std::thread([raw, this] { worker_main(*raw, model_, config_); });
  }

  const TimeMs batch = config_.batch_ms;
  TimeMs next_wm = batch;
  TimeMs broadcast = std::numeric_limits<TimeMs>::min();  // last watermark
  StreamRecord rec;
  while (source.next(rec)) {
    if (rec.record.time < broadcast) {
      // Late: workers have already closed windows and sessions up to the
      // broadcast watermark, so the record cannot be placed (policy in
      // daemon.hpp).
      ++stats.late_records;
      continue;
    }
    if (rec.record.time >= next_wm) {
      // Skip straight to the last grid point covered by this record: the
      // intermediate watermarks would close the same windows cumulatively,
      // so collapsing them changes batching, never verdict content/order.
      const TimeMs wm = (rec.record.time / batch) * batch;
      if (config_.pacer) config_.pacer(wm);
      Item mark;
      mark.kind = Item::Kind::kWatermark;
      mark.watermark = wm;
      for (auto& w : workers) w->queue.push(mark);
      broadcast = wm;
      ++stats.batches;
      next_wm = wm + batch;
      drain();
    }
    Item item;
    item.kind = Item::Kind::kRecord;
    item.rec = rec;
    workers[worker_of_lane(rec.lane, workers.size())]->queue.push(std::move(item));
    ++stats.records;
  }

  Item flush;
  flush.kind = Item::Kind::kFlush;
  for (auto& w : workers) w->queue.push(flush);
  for (auto& w : workers) w->thread.join();
  drain();  // all workers acked TimeMs max: emits everything left

  stats.queue_high_water.reserve(workers.size());
  for (auto& w : workers) {
    stats.sessions += w->assembler.sessions_started();
    stats.window_verdicts += w->window_verdicts;
    stats.final_verdicts += w->final_verdicts;
    stats.latency.merge(w->latency);
    stats.queue_high_water.push_back(w->queue.high_water());
  }
  return stats;
}

}  // namespace ltefp::stream
