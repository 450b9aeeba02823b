#include "trace.hpp"

#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace e2e {
namespace tracer {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};

struct Buffer {
  std::uint32_t index = 0;
  std::vector<Span> spans;
};

// Buffers are owned here, not by their threads: a daemon worker's spans
// must survive the worker's join. Each buffer is written only by its own
// thread; drain() runs when no traced work is in flight.
std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<Buffer>> g_buffers;

thread_local Buffer* t_buffer = nullptr;
thread_local std::uint64_t t_current = 0;

Buffer& local_buffer() {
  if (t_buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::make_unique<Buffer>());
    g_buffers.back()->index = static_cast<std::uint32_t>(g_buffers.size() - 1);
    t_buffer = g_buffers.back().get();
  }
  return *t_buffer;
}

}  // namespace

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
std::uint64_t next_id() { return g_next_id.fetch_add(1, std::memory_order_relaxed); }
std::uint64_t current() { return t_current; }

void record(const Span& span) {
  Buffer& b = local_buffer();
  b.spans.push_back(span);
  b.spans.back().thread = b.index;
}

std::vector<Span> drain() {
  const std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::vector<Span> out;
  for (auto& b : g_buffers) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
    b->spans.clear();
  }
  return out;
}

void write_csv(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "name,id,parent,group,thread,start_ns,end_ns,busy_ns\n";
  for (const Span& s : spans) {
    out << s.name << ',' << s.id << ',' << s.parent << ',' << s.group << ',' << s.thread << ','
        << s.start_ns << ',' << s.end_ns << ',' << s.busy_ns << '\n';
  }
}

}  // namespace tracer

ScopedSpan::ScopedSpan(const char* name, std::uint64_t group) {
  if (!tracer::enabled()) return;
  active_ = true;
  span_.name = name;
  span_.id = tracer::next_id();
  span_.parent = tracer::t_current;
  span_.group = group;
  saved_current_ = tracer::t_current;
  tracer::t_current = span_.id;
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = now_ns();
  span_.busy_ns = span_.end_ns - span_.start_ns;
  tracer::t_current = saved_current_;
  tracer::record(span_);
}

std::int64_t Coalescer::enter() {
  if (!tracer::enabled()) return 0;
  const std::int64_t start = now_ns();
  if (!has_open_) {
    has_open_ = true;
    open_ = Span{};
    open_.name = name_;
    open_.id = tracer::next_id();
    open_.parent = tracer::t_current;
    open_.start_ns = start;
  }
  saved_current_ = tracer::t_current;
  tracer::t_current = open_.id;
  return start;
}

std::int64_t Coalescer::exit(std::int64_t start) {
  if (!has_open_) return 0;
  const std::int64_t end = now_ns();
  tracer::t_current = saved_current_;
  open_.end_ns = end;
  open_.busy_ns += end - start;
  total_busy_ns_ += end - start;
  return end - start;
}

void Coalescer::flush(std::uint64_t group) {
  if (!has_open_) return;
  open_.group = group;
  tracer::record(open_);
  has_open_ = false;
}

}  // namespace e2e
