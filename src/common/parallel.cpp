#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <limits>
#include <stdexcept>
#include <thread>

namespace ltefp {
namespace {

thread_local bool t_in_region = false;

/// Bounded busy-wait before a worker blocks in a futex wait for the next
/// region (and before the caller blocks on region completion).
/// Event-engine regions are one subframe's shards — often only
/// microseconds of work, separated by a short serial merge — so a futex
/// sleep/wake round-trip per region costs more than the region itself. The
/// spin (with periodic yields, ~tens of microseconds total) bridges the
/// serial gap; genuinely idle threads still fall through to the blocking
/// wait. Scheduling-only: no effect on chunk
/// assignment or results.
constexpr int kSpinRounds = 1 << 15;
constexpr int kSpinYieldEvery = 1 << 10;

inline void spin_backoff(int round) {
  if ((round & (kSpinYieldEvery - 1)) == kSpinYieldEvery - 1) {
    std::this_thread::yield();
  }
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// The pool's one job slot, reused by every region. The region's caller
/// writes the plain fields while no chunk is unclaimed, then publishes them
/// by storing `unclaimed` (release). A participant reads them only after it
/// has claimed a chunk (acquire), and the caller does not return before
/// that chunk finishes, so the fields are stable whenever they are read —
/// also by a worker that woke for an earlier region: a claim that succeeds
/// is a claim on the region live at that moment.
struct Job {
  const ChunkFnRef* body = nullptr;  // the caller's, alive for the region
  std::size_t total = 0;
  std::size_t chunk = 1;
  std::size_t num_chunks = 0;
  std::exception_ptr error;  // written by the first failing chunk only
  std::atomic<bool> failed{false};
  std::atomic<std::size_t> unclaimed{0};    // counts down; chunks go in ascending order
  std::atomic<std::uint32_t> remaining{0};  // unfinished chunks; the caller waits on it

  /// Claims and runs chunks until none remain unclaimed. Safe from any thread.
  void work() {
    std::size_t left = unclaimed.load(std::memory_order_relaxed);
    while (left != 0) {
      if (!unclaimed.compare_exchange_weak(left, left - 1, std::memory_order_acquire,
                                           std::memory_order_relaxed)) {
        continue;  // `left` now holds the current count
      }
      const std::size_t begin = (num_chunks - left) * chunk;
      try {
        (*body)(begin, std::min(total, begin + chunk));
      } catch (...) {
        if (!failed.exchange(true, std::memory_order_relaxed)) error = std::current_exception();
      }
      if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) remaining.notify_one();
      left = unclaimed.load(std::memory_order_relaxed);
    }
  }
};

/// `remaining` is 32-bit so the caller's wait is a plain futex on it.
constexpr std::size_t kMaxChunks = std::numeric_limits<std::uint32_t>::max();

int env_thread_count() {
  const char* env = std::getenv("LTEFP_THREADS");
  if (env != nullptr) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1 && v <= 1024) return static_cast<int>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Runs every chunk on the calling thread, in ascending order.
void run_inline(std::size_t n, std::size_t chunk, std::size_t num_chunks, const ChunkFnRef& fn) {
  const bool outer = !t_in_region;
  t_in_region = true;
  try {
    for (std::size_t c = 0; c < num_chunks; ++c) {
      const std::size_t begin = c * chunk;
      fn(begin, std::min(n, begin + chunk));
    }
  } catch (...) {
    if (outer) t_in_region = false;
    throw;
  }
  if (outer) t_in_region = false;
}

class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  int threads() {
    const int n = threads_.load(std::memory_order_acquire);
    if (n != 0) return n;
    // First use: resolve the default once; a racing resolver agrees.
    int expected = 0;
    const int resolved = env_thread_count();
    return threads_.compare_exchange_strong(expected, resolved, std::memory_order_acq_rel)
               ? resolved
               : expected;
  }

  void set_threads(int n) {
    // Wait out a region another thread may be running, then rebuild.
    while (busy_.exchange(true, std::memory_order_acquire)) std::this_thread::yield();
    join_workers();
    threads_.store(n > 0 ? n : env_thread_count(), std::memory_order_release);
    busy_.store(false, std::memory_order_release);
  }

  void run(std::size_t n, std::size_t chunk, const ChunkFnRef& fn) {
    if (n == 0) return;
    if (chunk == 0) chunk = 1;
    const std::size_t num_chunks = (n + chunk - 1) / chunk;
    if (num_chunks > kMaxChunks) throw std::length_error("parallel_for: too many chunks");
    const int threads = this->threads();
    // Serial execution: thread count 1, a nested region, a single chunk, or
    // a pool that another thread's region holds. Chunks run inline in
    // ascending order — byte-for-byte the serial path.
    if (threads <= 1 || t_in_region || num_chunks == 1 ||
        busy_.exchange(true, std::memory_order_acquire)) {
      run_inline(n, chunk, num_chunks, fn);
      return;
    }

    try {
      ensure_workers(threads - 1);
    } catch (...) {  // thread creation failed: leave the pool usable
      busy_.store(false, std::memory_order_release);
      throw;
    }
    job_.body = &fn;
    job_.total = n;
    job_.chunk = chunk;
    job_.num_chunks = num_chunks;
    job_.error = nullptr;
    job_.failed.store(false, std::memory_order_relaxed);
    job_.remaining.store(static_cast<std::uint32_t>(num_chunks), std::memory_order_relaxed);
    job_.unclaimed.store(num_chunks, std::memory_order_release);
    generation_.fetch_add(1, std::memory_order_seq_cst);
    generation_.notify_all();

    t_in_region = true;
    job_.work();  // the caller participates
    t_in_region = false;

    // The stragglers are at most (threads - 1) tail chunks; spin through
    // that window before paying for a sleep.
    for (int round = 0;
         round < kSpinRounds && job_.remaining.load(std::memory_order_acquire) != 0; ++round) {
      spin_backoff(round);
    }
    for (std::uint32_t left; (left = job_.remaining.load(std::memory_order_acquire)) != 0;) {
      job_.remaining.wait(left, std::memory_order_acquire);
    }
    const std::exception_ptr error = std::move(job_.error);
    job_.error = nullptr;
    job_.body = nullptr;
    busy_.store(false, std::memory_order_release);
    if (error) std::rethrow_exception(error);
  }

 private:
  Pool() = default;
  ~Pool() { join_workers(); }

  void ensure_workers(int wanted) {
    while (static_cast<int>(workers_.size()) < wanted) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  void join_workers() {
    stop_.store(true, std::memory_order_seq_cst);
    generation_.fetch_add(1, std::memory_order_seq_cst);
    generation_.notify_all();
    for (auto& w : workers_) w.join();
    workers_.clear();
    stop_.store(false, std::memory_order_relaxed);
  }

  void worker_loop() {
    t_in_region = true;
    for (;;) {
      // Read the generation before claiming: a region published after this
      // read changes it, so the wait below cannot sleep through it.
      const std::uint32_t seen = generation_.load(std::memory_order_acquire);
      if (stop_.load(std::memory_order_acquire)) return;
      job_.work();
      // Catch back-to-back regions without a sleep/wake round-trip.
      for (int round = 0;
           round < kSpinRounds && generation_.load(std::memory_order_acquire) == seen; ++round) {
        spin_backoff(round);
      }
      generation_.wait(seen, std::memory_order_acquire);
    }
  }

  Job job_;
  std::vector<std::thread> workers_;  // touched only by the busy_ holder
  std::atomic<int> threads_{0};       // 0 = not yet resolved
  // Held by the one thread running a pool region (or rebuilding the pool).
  // Never waited on by run(): a caller that finds it taken runs inline.
  std::atomic<bool> busy_{false};
  // Bumped once per published region (and at shutdown); idle workers wait
  // on it.
  std::atomic<std::uint32_t> generation_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace

int thread_count() { return Pool::instance().threads(); }

void set_thread_count(int n) { Pool::instance().set_threads(n); }

bool in_parallel_region() { return t_in_region; }

void parallel_for(std::size_t n, std::size_t chunk, ChunkFnRef fn) {
  Pool::instance().run(n, chunk, fn);
}

}  // namespace ltefp
