// Benchmark-side span tracer.
//
// Spans are recorded only from the benchmark's own files, around the calls
// it makes into each library layer, so the library itself stays unchanged.
// Each span has a name "<layer>.<what>", a
// start and end on the steady clock, the span that caused it, and a group
// id shared by all spans of one watermark batch or one operation. Spans go
// into per-thread in-memory buffers and are collected once the traced pass
// has ended.
//
// Calls that are far cheaper than a clock read pair would drown in
// per-call spans (a sniffer's empty subframe, one ReplaySource::next), so
// those are coalesced: a Coalescer sums the busy time of many calls and
// emits one span per group whose `busy_ns` is that sum, while start/end
// bracket the first and last call. For a plain span busy_ns = end - start.
// A span's self time is its busy time minus its children's busy time.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // static string, "<layer>.<what>"
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: root
  std::uint64_t group = 0;   // watermark batch or operation id
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t busy_ns = 0;
  std::uint32_t thread = 0;  // buffer index, one per recording thread
};

namespace tracer {

/// Turns recording on or off for the whole process. Off: every span and
/// coalescer is a branch on this flag and nothing else.
void enable(bool on);
bool enabled();

/// A fresh span id (never 0).
std::uint64_t next_id();

/// The innermost open span on this thread (0 when none).
std::uint64_t current();

/// Appends to the calling thread's buffer.
void record(const Span& span);

/// Moves every buffered span out and empties the buffers. Call only while
/// no traced work is in flight.
std::vector<Span> drain();

/// Writes spans as CSV (name,id,parent,group,thread,start_ns,end_ns,busy_ns).
void write_csv(const std::string& path, const std::vector<Span>& spans);

}  // namespace tracer

/// RAII span; a no-op while tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t group = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
  std::uint64_t saved_current_ = 0;
  bool active_ = false;
};

/// Sums the busy time of many short calls into one span per group. Enter()
/// and exit() bracket one call and must pair on one thread; while inside,
/// the coalesced span is the current span, so spans opened by the call
/// become its children.
class Coalescer {
 public:
  explicit Coalescer(const char* name) : name_(name) {}

  /// Starts a call; returns its start time (0 while tracing is off).
  std::int64_t enter();
  /// Ends the call begun at `start`; returns its duration in ns.
  std::int64_t exit(std::int64_t start);
  /// Records the accumulated span (if any call happened) under `group`.
  void flush(std::uint64_t group);
  /// Busy time of every call since construction, flushed or not.
  std::int64_t total_busy_ns() const { return total_busy_ns_; }

  Coalescer(const Coalescer&) = delete;
  Coalescer& operator=(const Coalescer&) = delete;

 private:
  const char* name_;
  Span open_;
  bool has_open_ = false;
  std::uint64_t saved_current_ = 0;
  std::int64_t total_busy_ns_ = 0;
};

}  // namespace e2e
