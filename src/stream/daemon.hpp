// The streaming attack daemon: online classification while capturing.
//
// Batch-synchronous watermark pipeline. The driver (the thread calling
// run()) consumes the globally time-ordered record stream, shards it over
// K workers by a hash of the lane (worker_of_lane), and pushes records
// plus in-band watermark markers through bounded SPSC queues — a full
// queue applies backpressure instead of buffering without bound. Each
// worker owns a SessionAssembler over its lane shard, batch-classifies the
// windows that close each watermark interval through the shared trained
// classifier, accumulates per-session window votes, publishes its verdicts
// sorted by (time, cell, lane), and acknowledges the watermark. The driver
// progressively k-way merges worker outboxes up to the minimum
// acknowledged watermark, so the sink sees one totally ordered verdict
// stream.
//
// Determinism contract: each worker's output is a pure function of its
// in-band item sequence, which is a pure function of the source; and
// (time, cell, lane) is a strict total order over all verdicts (times
// strictly increase within a lane). Hence the merged stream is
// byte-identical at any worker count — the acceptance criterion the
// StreamEndToEnd test pins at 1/2/8 workers.
//
// Decision latency: an interim verdict is stamped at its window's end —
// the earliest sim time the decision is knowable — so per-window latency
// (window_end - last record in the window) is bounded by the window length
// (100 ms) and therefore below one subframe batch (128 ms) by
// construction. Real-time feasibility is evidenced separately by the queue
// high-water marks and ingest throughput in StreamStats.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "attacks/collect.hpp"
#include "common/sim_time.hpp"
#include "common/stats.hpp"
#include "features/window.hpp"
#include "ml/classifier.hpp"
#include "stream/replay_source.hpp"
#include "stream/session.hpp"
#include "stream/verdict.hpp"

namespace ltefp::stream {

/// The watermark grid pitch: one batch per 128 simulated subframes. A
/// power-of-two multiple of the 1 ms subframe, large enough to amortize
/// batch classification, small enough that interim verdicts lag the radio
/// by at most ~an eighth of a second of sim time.
inline constexpr TimeMs kSubframeBatchMs = 128;

/// The worker, of `workers` (>= 1), that owns every record of `lane`: the
/// murmur3 fmix32 finalizer, then reduced to [0, workers). Every lane bit
/// moves every output bit, so lanes in an arithmetic progression spread
/// over the workers. Replayed corpus lanes are such a progression: an
/// entry's seq is cell * hours + hour, so the lanes live in one hour
/// share the stride `hours`, and `lane % workers` would give all of them to
/// one worker whenever the worker count divides the stride. Stateless: the
/// driver keeps no per-lane table.
inline std::size_t worker_of_lane(std::uint32_t lane, std::size_t workers) {
  std::uint32_t h = lane;
  h ^= h >> 16;
  h *= 0x85EBCA6Bu;
  h ^= h >> 13;
  h *= 0xC2B2AE35u;
  h ^= h >> 16;
  return h % workers;
}

struct StreamConfig {
  features::WindowConfig window;
  /// Idle gap that ends a session; must exceed window.window_ms.
  TimeMs idle_cutoff = attacks::kSessionIdleCutoffMs;
  /// Watermark pitch (>= 1).
  TimeMs batch_ms = kSubframeBatchMs;
  /// Per-worker SPSC queue capacity (power of two >= 2).
  std::size_t queue_capacity = 4096;
  /// Worker count; 0 uses the global pool's thread count.
  int workers = 0;
  /// Emit one interim verdict per classified window (the vote converging
  /// live). Final session verdicts are always emitted.
  bool emit_window_verdicts = true;
  /// Rate-control hook, called on the driver thread with each watermark's
  /// sim time before that batch is released. The CLI installs a wall-clock
  /// sleeper here (clocks are lint-banned in src/, so pacing lives with
  /// the caller); null runs unpaced.
  std::function<void(TimeMs)> pacer;
};

struct StreamStats {
  std::size_t records = 0;
  std::size_t sessions = 0;
  std::size_t window_verdicts = 0;
  std::size_t final_verdicts = 0;
  std::size_t batches = 0;  // watermarks broadcast
  /// Records dropped for arriving with a time below the last broadcast
  /// watermark (see StreamDaemon::run).
  std::size_t late_records = 0;
  /// Interim-decision latency (window_end - last record), ms sim time.
  /// Latency is bounded by the window length by construction, so 2 ms
  /// buckets across one subframe batch keep the conservative quantiles
  /// tight; anything larger lands in the overflow bucket (exact max).
  Histogram latency = Histogram::linear(0.0, static_cast<double>(kSubframeBatchMs), 64);
  /// Deepest each worker's ingest queue got (backpressure evidence).
  std::vector<std::size_t> queue_high_water;
};

class StreamDaemon {
 public:
  /// `model` must outlive the daemon and be trained; the daemon only calls
  /// const predict paths, through the global pool (concurrent top-level
  /// predict_rows calls serialize safely).
  StreamDaemon(const ml::Classifier& model, StreamConfig config);

  /// Drains `source` to completion, emitting the merged verdict stream
  /// into `sink` (called on this thread, in final order). Returns the
  /// run's statistics. Not reentrant.
  ///
  /// Late-record policy: a watermark promises every worker that no record
  /// below it is still to come, and the workers act on it by closing
  /// windows and sessions. A record whose time is below the last
  /// broadcast watermark is therefore dropped, never fed, and counted in
  /// StreamStats::late_records. Records at or above it may arrive in any
  /// order across lanes; within a lane, times must not decrease.
  StreamStats run(StreamSource& source, VerdictSink& sink);

  const StreamConfig& config() const { return config_; }

 private:
  const ml::Classifier& model_;
  StreamConfig config_;
};

}  // namespace ltefp::stream
