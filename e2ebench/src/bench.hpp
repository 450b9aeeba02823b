// Shared pieces of the end-to-end attack benchmark: what a workload is,
// how it reports metrics, and the helpers the three workloads share.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ml/random_forest.hpp"

namespace e2e {

/// Metric samples of one benchmark run, keyed by metric name.
///  - rep():       one sample per repetition; reported as the median.
///  - latencies(): one repetition's per-operation samples. close_rep()
///                 turns them into that repetition's p50 and p99, two more
///                 per-repetition metrics, so memory stays flat however
///                 many repetitions run.
///  - count():     a layer counter of the last repetition (traced runs).
class Recorder {
 public:
  struct Series {
    std::string unit;
    std::vector<double> values;
    std::size_t samples = 0;  // operations behind the values
  };

  void rep(const std::string& name, const char* unit, double value);
  void latencies(const std::string& name, const char* unit, std::vector<double> values);
  void count(const std::string& name, const char* unit, double value);
  /// Ends a repetition; called by the driver after its timed phase.
  void close_rep();

  const std::map<std::string, Series>& reps() const { return reps_; }
  const std::map<std::string, Series>& counts() const { return counts_; }

 private:
  std::map<std::string, Series> reps_, counts_, pending_;
};

/// Outcome of the output checks: operations compared and how many differed.
struct CheckResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void expect(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// One named workload. A repetition is setup() then run(); the driver
/// times both, repeats them, and calls check() once on the last
/// repetition's state, outside every timed phase.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs from `seed` and starts the global pool at
  /// `threads` workers. `traced` says whether run() will be traced, so
  /// probes can be attached up front.
  virtual void setup(std::uint64_t seed, int threads, bool traced) = 0;
  /// The timed phase. Records its own per-phase metrics and counters.
  virtual void run(Recorder& rec) = 0;
  /// Digest of the run's outputs; equal seeds must give equal digests.
  virtual std::uint64_t digest() const = 0;
  /// Compares the last run's outputs against independent oracles.
  virtual CheckResult check() = 0;
};

std::unique_ptr<Workload> make_city_live(bool smoke);
std::unique_ptr<Workload> make_corpus_forensics(bool smoke, const std::string& work_dir);
std::unique_ptr<Workload> make_campaign(bool smoke);

// --- helpers shared by the workloads -------------------------------------

/// set_thread_count(threads) plus one empty parallel region, so the pool's
/// threads exist before anything is timed against them.
void start_pool(int threads);

/// A small forest for the streaming daemon: a T-Mobile collection campaign
/// of `traces_per_app` short traces per app, windowed and fitted.
std::unique_ptr<ltefp::ml::RandomForest> train_daemon_forest(std::uint64_t seed, int traces_per_app,
                                                      std::int64_t trace_ms, int trees);

/// FNV-1a over bytes, chained from `h`.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t h = 14695981039346656037ULL);

double seconds_since(std::int64_t start_ns);

/// Linear-interpolated quantile `q` in [0, 1] of `v` (0 when empty).
double quantile(std::vector<double> v, double q);

}  // namespace e2e
