// Deterministic thread-pool parallelism for the hot paths (collection,
// forest training, blind decode, DTW).
//
// The contract every caller relies on: results are BIT-IDENTICAL at any
// thread count. The primitives here make that natural — work is split into
// chunks addressed by index, each chunk writes only its own pre-sized
// output slot, and reductions happen on the calling thread in slot order.
// Nothing observable may depend on which worker ran a chunk or when.
//
// The pool is global and lazily started. Thread count comes from
// set_thread_count(), else the LTEFP_THREADS env var, else the hardware.
// A count of 1 bypasses the pool entirely: chunks run inline, in order, on
// the calling thread — exact serial execution, not an emulation of it.
// Nested parallel regions (a parallel_for inside a worker) also run inline
// rather than deadlocking the pool, and so does a region whose caller finds
// the pool busy with another thread's region.
//
// A steady-state region takes no lock and allocates nothing: the thread
// count is an atomic, the pool reuses one job slot, and the body is passed
// by reference (ChunkFnRef), never copied into a std::function.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace ltefp {

/// Non-owning reference to a callable fn(begin, end) over an index range:
/// two pointers, no allocation. The callable must outlive the call it is
/// passed to, which a lambda written at the call site does.
class ChunkFnRef {
 public:
  template <typename Fn>
    requires(!std::is_same_v<std::remove_cvref_t<Fn>, ChunkFnRef> &&
             std::is_invocable_v<Fn&, std::size_t, std::size_t>)
  ChunkFnRef(Fn&& fn) noexcept  // implicit: call sites pass a lambda
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(fn)))),
        call_([](void* obj, std::size_t begin, std::size_t end) {
          (*static_cast<std::remove_reference_t<Fn>*>(obj))(begin, end);
        }) {}

  void operator()(std::size_t begin, std::size_t end) const { call_(obj_, begin, end); }

 private:
  void* obj_;
  void (*call_)(void*, std::size_t, std::size_t);
};

/// Resolved worker count the next parallel region will use (>= 1). A
/// lock-free atomic read once resolved.
int thread_count();

/// Sets the pool size. n <= 0 restores the default (LTEFP_THREADS env var,
/// else hardware concurrency). Joins any running workers; must not be
/// called from inside a parallel region.
void set_thread_count(int n);

/// True while the calling thread is executing inside a parallel region
/// (worker or participating caller). Exposed for bench reporting.
bool in_parallel_region();

/// Runs fn(begin, end) over every chunk [begin, end) of [0, n), chunk size
/// `chunk` (0 = auto). Chunks execute concurrently; the call returns after
/// all complete. The first exception thrown by any chunk is rethrown on
/// the calling thread. fn must only write state owned by its index range.
void parallel_for(std::size_t n, std::size_t chunk, ChunkFnRef fn);

/// Order-preserving map: out[i] = fn(i) for i in [0, n), computed
/// concurrently but returned in index order. R must be default-
/// constructible and move-assignable.
template <typename Fn>
auto parallel_map(std::size_t n, Fn&& fn, std::size_t chunk = 1)
    -> std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>> {
  using R = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
  std::vector<R> out(n);
  parallel_for(n, chunk, [&out, &fn](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) out[i] = fn(i);
  });
  return out;
}

}  // namespace ltefp
