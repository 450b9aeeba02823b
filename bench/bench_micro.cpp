// Micro-benchmarks (google-benchmark) for the performance-critical pieces:
// PDCCH blind decoding, TBS lookups, window feature extraction, DTW, and
// the classifiers. These quantify the paper's qualitative claims (e.g.
// "kNN ... may exhibit signs of reduced processing speed" on prediction,
// RF trains cheaply without a GPU) and the sniffer's real-time headroom
// (one subframe budget on the air is 1 ms).
//
// Extra flags (stripped before google-benchmark sees argv):
//   --json FILE   write machine-readable results to FILE: the host block
//                 e2ebench result files carry (CPU, core count, SIMD tier,
//                 build type, compiler, threads) and one row per run (name,
//                 iterations, ns/op, bytes/s, threads), so the perf
//                 trajectory is tracked across PRs / thread configs and
//                 numbers from different hosts are never compared
//   --threads N   pool size for the *Par benchmarks' parallel stages
#include <benchmark/benchmark.h>
#include <sched.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/population.hpp"
#include "attacks/collect.hpp"
#include "attacks/pipeline.hpp"
#include "bench_util.hpp"
#include "common/cpu.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/spsc.hpp"
#include "dtw/dtw.hpp"
#include "features/matrix.hpp"
#include "features/window.hpp"
#include "lte/crc.hpp"
#include "lte/dci.hpp"
#include "lte/operator_profile.hpp"
#include "lte/tbs.hpp"
#include "ml/cnn.hpp"
#include "ml/knn.hpp"
#include "ml/logreg.hpp"
#include "ml/random_forest.hpp"
#include "sniffer/sniffer.hpp"
#include "stream/daemon.hpp"
#include "stream/replay_source.hpp"
#include "stream/verdict.hpp"
#include "tracestore/corpus.hpp"
#include "tracestore/mapped_reader.hpp"
#include "tracestore/synth.hpp"
#include "tracestore/writer.hpp"

#include <filesystem>
#include <unistd.h>

using namespace ltefp;

namespace {

lte::PdcchSubframe make_subframe(int dcis, Rng& rng) {
  lte::PdcchSubframe sf;
  sf.time = 0;
  for (int i = 0; i < dcis; ++i) {
    lte::Dci dci;
    dci.direction = rng.bernoulli(0.5) ? lte::Direction::kDownlink : lte::Direction::kUplink;
    dci.rnti = static_cast<lte::Rnti>(rng.uniform_int(lte::kMinCRnti, lte::kMaxCRnti));
    dci.mcs = static_cast<std::uint8_t>(rng.uniform_int(0, 28));
    dci.nprb = static_cast<std::uint8_t>(rng.uniform_int(1, 100));
    sf.dcis.push_back(lte::encode_dci(dci));
  }
  return sf;
}

features::Dataset synthetic_dataset(std::size_t n, int classes, Rng& rng) {
  features::Dataset data;
  data.feature_names = features::feature_names();
  data.label_names.resize(static_cast<std::size_t>(classes));
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(i % static_cast<std::size_t>(classes));
    features::FeatureVector x(features::kFeatureCount);
    for (auto& v : x) v = rng.normal(label * 2.0, 1.0);
    data.add(std::move(x), label);
  }
  return data;
}

// 4 bytes is a DCI payload (eNB masking, sniffer RNTI recovery); 16384 is
// a .ltt record chunk (writer and every reader's chunk check).
void BM_Crc16(benchmark::State& state) {
  Rng rng(16);
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(state.range(0)));
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(lte::crc16(payload));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc16)->Arg(4)->Arg(64)->Arg(16384);

void BM_DciEncodeDecode(benchmark::State& state) {
  lte::Dci dci;
  dci.rnti = 0x1234;
  dci.mcs = 15;
  dci.nprb = 25;
  for (auto _ : state) {
    const auto enc = lte::encode_dci(dci);
    benchmark::DoNotOptimize(lte::decode_dci_fields(enc));
    benchmark::DoNotOptimize(lte::recover_rnti(enc.payload, enc.masked_crc));
  }
}
BENCHMARK(BM_DciEncodeDecode);

void BM_TbsLookup(benchmark::State& state) {
  int itbs = 0, nprb = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lte::transport_block_size_bytes(itbs, nprb));
    itbs = (itbs + 1) % lte::kNumItbs;
    nprb = 1 + (nprb % lte::kMaxPrb);
  }
}
BENCHMARK(BM_TbsLookup);

void BM_SnifferSubframe(benchmark::State& state) {
  Rng rng(7);
  const auto sf = make_subframe(static_cast<int>(state.range(0)), rng);
  sniffer::Sniffer sniff(sniffer::SnifferConfig{}, Rng(9));
  for (auto _ : state) {
    sniff.on_subframe(sf);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
  state.counters["budget_us_per_subframe"] = 1000;  // 1 ms air budget
}
BENCHMARK(BM_SnifferSubframe)->Arg(4)->Arg(16);

void BM_WindowExtraction(benchmark::State& state) {
  Rng rng(21);
  sniffer::Trace trace;
  TimeMs t = 0;
  for (int i = 0; i < 20'000; ++i) {
    t += rng.uniform_int(1, 40);
    trace.push_back(sniffer::TraceRecord{
        t, 0x100, rng.bernoulli(0.5) ? lte::Direction::kDownlink : lte::Direction::kUplink,
        static_cast<int>(rng.uniform_int(16, 3000)), 0});
  }
  const features::WindowConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(features::extract_windows(trace, 0, config));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 20'000);
}
BENCHMARK(BM_WindowExtraction);

sniffer::Trace synthetic_trace(std::size_t n, Rng& rng) {
  sniffer::Trace trace;
  trace.reserve(n);
  TimeMs t = 0;
  // A victim cycles through a few RNTIs; sizes span chat frames to video
  // bursts — the shape the tracestore's delta/dictionary coding targets.
  std::vector<lte::Rnti> rntis;
  for (int i = 0; i < 6; ++i) {
    rntis.push_back(static_cast<lte::Rnti>(rng.uniform_int(lte::kMinCRnti, lte::kMaxCRnti)));
  }
  for (std::size_t i = 0; i < n; ++i) {
    t += rng.uniform_int(1, 40);
    trace.push_back(sniffer::TraceRecord{
        t, rng.pick(rntis), rng.bernoulli(0.5) ? lte::Direction::kDownlink : lte::Direction::kUplink,
        static_cast<int>(rng.uniform_int(16, 3000)), 1});
  }
  return trace;
}

void BM_TraceStoreWrite(benchmark::State& state) {
  Rng rng(17);
  const auto trace = synthetic_trace(static_cast<std::size_t>(state.range(0)), rng);
  tracestore::TraceMeta meta;
  meta.label = "bench";
  std::size_t binary_bytes = 0;
  for (auto _ : state) {
    std::ostringstream out;
    binary_bytes = tracestore::write_trace(out, meta, trace);
    benchmark::DoNotOptimize(out);
  }
  std::ostringstream csv;
  sniffer::write_csv(csv, trace);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(binary_bytes));
  state.counters["bytes_per_record"] =
      static_cast<double>(binary_bytes) / static_cast<double>(trace.size());
  state.counters["csv_size_ratio"] =
      static_cast<double>(csv.str().size()) / static_cast<double>(binary_bytes);
}
BENCHMARK(BM_TraceStoreWrite)->Arg(20'000);

void BM_TraceStoreRead(benchmark::State& state) {
  Rng rng(17);
  const auto trace = synthetic_trace(static_cast<std::size_t>(state.range(0)), rng);
  tracestore::TraceMeta meta;
  meta.label = "bench";
  std::ostringstream out;
  tracestore::write_trace(out, meta, trace);
  const std::string image = out.str();
  const std::span<const std::uint8_t> bytes(reinterpret_cast<const std::uint8_t*>(image.data()),
                                            image.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracestore::MappedReader(bytes).read_all());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(image.size()));
}
BENCHMARK(BM_TraceStoreRead)->Arg(20'000);

// --- Corpus-level benches: open, range-scan and full decode over a
// deterministic synth "city-day" corpus. The tracked variants use a small
// corpus (a few MB, built once per process); the *Large variants
// regenerate a >= 1 GB corpus and only run with LTEFP_BENCH_LARGE=1 —
// they are the acceptance benches for the v2 seek path, not CI fare. ---

struct BenchCorpus {
  std::string dir;
  std::size_t records = 0;
  std::size_t bytes = 0;
  explicit BenchCorpus(const char* tag, const tracestore::SynthOptions& options) {
    dir = (std::filesystem::temp_directory_path() /
           (std::string("ltefp_bench_") + tag + "_" + std::to_string(::getpid())))
              .string();
    const tracestore::SynthSummary summary = tracestore::synth_city_day(dir, options);
    records = summary.records;
    bytes = summary.bytes;
  }
  ~BenchCorpus() { std::filesystem::remove_all(dir); }
};

const BenchCorpus& small_corpus() {
  static const BenchCorpus corpus = [] {
    tracestore::SynthOptions options;
    options.seed = 7;
    options.cells = 4;
    options.hours = 6;
    options.ues_per_cell = 12;
    options.sessions_per_ue_hour = 3.0;
    options.corpus.entries_per_shard = 8;
    options.corpus.trace.compress = true;
    // Small enough chunks that intra-file directory pruning is visible in
    // the chunks_skipped counter even on this few-MB corpus.
    options.corpus.trace.records_per_chunk = 256;
    return BenchCorpus("corpus", options);
  }();
  return corpus;
}

void BM_CorpusOpen(benchmark::State& state) {
  const BenchCorpus& c = small_corpus();
  for (auto _ : state) {
    tracestore::Corpus corpus = tracestore::Corpus::open(c.dir);
    benchmark::DoNotOptimize(&corpus);
  }
  // Sharded open parses only the shard index, never a trace file — the
  // items rate is manifests parsed, not traces.
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CorpusOpen);

void BM_CorpusRangeScan(benchmark::State& state) {
  const BenchCorpus& c = small_corpus();
  const tracestore::Corpus corpus = tracestore::Corpus::open(c.dir);
  tracestore::RangeQuery query;
  query.t0 = 4 * kMsPerHour + 600'000;  // 10 minutes inside hour 4
  query.t1 = 4 * kMsPerHour + 720'000;
  tracestore::RangeScanStats stats;
  std::size_t records_out = 0;
  for (auto _ : state) {
    const auto slices = corpus.range_scan(query, &stats);
    records_out = stats.records_out;
    benchmark::DoNotOptimize(slices.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(records_out));
  // Bytes touched per scan: only the opened files' decoded chunks — the
  // corpus total is what a pruning-free scan would stream.
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(c.bytes));
  state.counters["files_opened"] = static_cast<double>(stats.files_opened);
  state.counters["chunks_decoded"] = static_cast<double>(stats.chunks_decoded);
  state.counters["chunks_skipped"] = static_cast<double>(stats.chunks_skipped);
  state.counters["entries_pruned"] = static_cast<double>(stats.entries_pruned);
}
BENCHMARK(BM_CorpusRangeScan);

void BM_CorpusFullDecode(benchmark::State& state) {
  const BenchCorpus& c = small_corpus();
  const tracestore::Corpus corpus = tracestore::Corpus::open(c.dir);
  std::size_t records = 0;
  for (auto _ : state) {
    records = 0;
    for (const auto& loaded : corpus.load_all()) records += loaded.trace.size();
    benchmark::DoNotOptimize(records);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(records));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(c.bytes));
}
BENCHMARK(BM_CorpusFullDecode)->Unit(benchmark::kMillisecond);

const BenchCorpus* large_corpus() {
  if (std::getenv("LTEFP_BENCH_LARGE") == nullptr) return nullptr;
  // >= 1 GB plain-v2 corpus: 96 cells x 24 h x 80 UEs. Built once per
  // process (takes a few minutes), removed on exit.
  static const BenchCorpus corpus = [] {
    tracestore::SynthOptions options;
    options.seed = 11;
    options.cells = 96;
    options.hours = 24;
    options.ues_per_cell = 80;
    options.sessions_per_ue_hour = 8.0;
    options.corpus.entries_per_shard = 64;
    return BenchCorpus("corpus_large", options);
  }();
  return &corpus;
}

void BM_CorpusRangeScanLarge(benchmark::State& state) {
  const BenchCorpus* c = large_corpus();
  if (c == nullptr) {
    state.SkipWithError("set LTEFP_BENCH_LARGE=1 to run the >= 1 GB corpus bench");
    return;
  }
  const tracestore::Corpus corpus = tracestore::Corpus::open(c->dir);
  tracestore::RangeQuery query;
  // The paper's targeted-victim lookup: one C-RNTI in one cell over two
  // minutes of an evening hour. C-RNTIs are per-cell identifiers, so the
  // cell filter is part of the query, not a benchmark cheat — it prunes
  // the other 95 cells' entries from the manifest, and the chunk
  // directories prune the rest of the day inside the victim's cell. The
  // acceptance bar is < 10 ms against a >= 1 GB corpus.
  query.t0 = 20 * kMsPerHour + 1'200'000;
  query.t1 = 20 * kMsPerHour + 1'320'000;
  query.filter.cell = 37;
  // Probe once (untimed) for a victim that is actually transmitting in
  // the window, so the timed scan returns real records rather than an
  // empty slice from an idle UE. Deterministic: the corpus is a pure
  // function of the seed, so the probe always picks the same RNTI.
  {
    const auto active = corpus.range_scan(query);
    if (active.empty() || active[0].trace.empty()) {
      state.SkipWithError("no active UE in the probe window; retune the synth options");
      return;
    }
    query.rnti = active[0].trace[active[0].trace.size() / 2].rnti;
  }
  tracestore::RangeScanStats stats;
  for (auto _ : state) {
    const auto slices = corpus.range_scan(query, &stats);
    benchmark::DoNotOptimize(slices.data());
  }
  state.counters["corpus_bytes"] = static_cast<double>(c->bytes);
  state.counters["records_out"] = static_cast<double>(stats.records_out);
  state.counters["entries_pruned"] = static_cast<double>(stats.entries_pruned);
  state.counters["files_opened"] = static_cast<double>(stats.files_opened);
  state.counters["chunks_decoded"] = static_cast<double>(stats.chunks_decoded);
  state.counters["chunks_skipped"] = static_cast<double>(stats.chunks_skipped);
}
BENCHMARK(BM_CorpusRangeScanLarge);

void BM_CorpusFullDecodeLarge(benchmark::State& state) {
  const BenchCorpus* c = large_corpus();
  if (c == nullptr) {
    state.SkipWithError("set LTEFP_BENCH_LARGE=1 to run the >= 1 GB corpus bench");
    return;
  }
  const tracestore::Corpus corpus = tracestore::Corpus::open(c->dir);
  // Decode file by file (discarding each trace) so this measures decode
  // throughput, not the allocation of a corpus-sized vector.
  std::size_t records = 0;
  for (auto _ : state) {
    records = 0;
    for (const auto& entry : corpus.entries()) {
      const tracestore::MappedReader reader(c->dir + "/" + entry.file);
      records += reader.read_all().size();
    }
    benchmark::DoNotOptimize(records);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(records));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(c->bytes));
}
BENCHMARK(BM_CorpusFullDecodeLarge)->Unit(benchmark::kMillisecond);

void BM_TraceCsvRead(benchmark::State& state) {
  Rng rng(17);
  const auto trace = synthetic_trace(static_cast<std::size_t>(state.range(0)), rng);
  std::ostringstream out;
  sniffer::write_csv(out, trace);
  const std::string text = out.str();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sniffer::read_csv(text));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_TraceCsvRead)->Arg(20'000);

void BM_Dtw(benchmark::State& state) {
  Rng rng(5);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> a(n), b(n);
  for (auto& v : a) v = rng.uniform(0, 50);
  for (auto& v : b) v = rng.uniform(0, 50);
  dtw::DtwOptions options;
  options.band = static_cast<int>(n / 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw::dtw_distance(a, b, options));
  }
  // Operand traffic: both series are read once per distance.
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * n * sizeof(double)));
}
BENCHMARK(BM_Dtw)->Arg(60)->Arg(180)->Arg(600);

/// Structured candidate corpus for the pruned-search benchmark: families
/// of periodic series at widely spread amplitudes, like app frame-count
/// series from different traffic volumes. The spread is what a lower-bound
/// cascade exploits — most candidates are provably far from the query.
std::vector<std::vector<double>> bestmatch_corpus(std::size_t count, std::size_t len,
                                                  Rng& rng) {
  std::vector<std::vector<double>> corpus(count);
  for (std::size_t c = 0; c < count; ++c) {
    const double amp = 3.0 * std::pow(1.7, static_cast<double>(c % 10));
    const double period = 45.0 + 14.0 * static_cast<double>(c % 4);
    const double phase = rng.uniform(0.0, period);
    auto& s = corpus[c];
    s.resize(len);
    for (std::size_t i = 0; i < len; ++i) {
      const double base =
          amp * (1.0 + std::sin((static_cast<double>(i) + phase) * 6.28318530717958647692 /
                                period));
      s[i] = std::max(0.0, base + rng.normal(0.0, amp * 0.08));
    }
  }
  return corpus;
}

void BM_DtwBestMatch(benchmark::State& state) {
  Rng rng(11);
  auto corpus = bestmatch_corpus(64, 180, rng);
  // The query is a re-noised take of one corpus member: a strong true
  // match exists, everything else should fall to the bound cascade.
  std::vector<double> query = corpus[37];
  for (auto& v : query) v = std::max(0.0, v + rng.normal(0.0, 1.0));
  dtw::SearchOptions options;
  options.dtw.band = 22;
  options.prune = state.range(0) != 0;
  dtw::SearchStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw::best_match(query, corpus, options, &stats));
  }
  // Operand traffic: the query plus every corpus series per search.
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>((64 * 180 + 180) * sizeof(double)));
  state.counters["full_dp"] = static_cast<double>(stats.full_dp);
  state.counters["pruned_frac"] =
      stats.candidates > 0
          ? static_cast<double>(stats.pruned() + stats.short_circuits) /
                static_cast<double>(stats.candidates)
          : 0.0;
}
BENCHMARK(BM_DtwBestMatch)->Arg(0)->Arg(1);

void BM_RandomForestTrain(benchmark::State& state) {
  Rng rng(3);
  const auto data = synthetic_dataset(static_cast<std::size_t>(state.range(0)), 3, rng);
  for (auto _ : state) {
    ml::RandomForest rf(ml::ForestConfig{.num_trees = 20});
    rf.fit(data);
    benchmark::DoNotOptimize(rf.tree_count());
  }
}
BENCHMARK(BM_RandomForestTrain)->Arg(1000)->Arg(5000);

void BM_RandomForestPredict(benchmark::State& state) {
  Rng rng(3);
  const auto data = synthetic_dataset(5000, 3, rng);
  ml::RandomForest rf;
  rf.fit(data);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rf.predict(data.samples[i % data.size()].features));
    ++i;
  }
  // Operand traffic: one feature vector per predict.
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(features::kFeatureCount * sizeof(double)));
}
BENCHMARK(BM_RandomForestPredict);

void BM_RandomForestPredictBatch(benchmark::State& state) {
  Rng rng(3);
  const auto data = synthetic_dataset(5000, 3, rng);
  ml::RandomForest rf;
  rf.fit(data);
  const features::DatasetMatrix matrix(data);
  const auto rows = matrix.all_rows();
  for (auto _ : state) {
    const auto out = rf.predict_rows(matrix, rows);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows.size()));
  // Operand traffic: the whole feature matrix per batch predict.
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows.size() *
                                                    features::kFeatureCount *
                                                    sizeof(double)));
}
BENCHMARK(BM_RandomForestPredictBatch)->Unit(benchmark::kMillisecond);

void BM_RandomForestPredictBatchScalar(benchmark::State& state) {
  // The same batch predict pinned to the portable scalar tier — the
  // (tier-dispatch speedup = PredictBatchScalar / PredictBatch) pair keeps
  // the SIMD win visible in the tracked baseline on any host.
  set_simd_tier(SimdTier::kScalar);
  Rng rng(3);
  const auto data = synthetic_dataset(5000, 3, rng);
  ml::RandomForest rf;
  rf.fit(data);
  const features::DatasetMatrix matrix(data);
  const auto rows = matrix.all_rows();
  for (auto _ : state) {
    const auto out = rf.predict_rows(matrix, rows);
    benchmark::DoNotOptimize(out.data());
  }
  clear_simd_tier_override();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows.size() *
                                                    features::kFeatureCount *
                                                    sizeof(double)));
}
BENCHMARK(BM_RandomForestPredictBatchScalar)->Unit(benchmark::kMillisecond);

void BM_RandomForestPredictSmall(benchmark::State& state) {
  // The streaming daemon's shape: a few rows per predict_rows call, made
  // through ml::Classifier, with each call's column-major matrix built
  // from the rows' feature vectors as the daemon builds it per batch.
  Rng rng(3);
  const auto data = synthetic_dataset(5000, 3, rng);
  ml::RandomForest rf;
  rf.fit(data);
  const ml::Classifier& model = rf;
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint32_t> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = static_cast<std::uint32_t>(i);
  std::size_t next = 0;
  for (auto _ : state) {
    std::vector<double> values(n * features::kFeatureCount);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& x = data.samples[(next + i) % data.size()].features;
      for (std::size_t f = 0; f < features::kFeatureCount; ++f) values[f * n + i] = x[f];
    }
    next += n;
    const auto matrix =
        features::DatasetMatrix::from_columns(std::move(values), n, features::kFeatureCount);
    const auto out = model.predict_rows(matrix, rows);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RandomForestPredictSmall)->Arg(1)->Arg(2)->Arg(8);

void BM_DatasetMatrixBuild(benchmark::State& state) {
  Rng rng(3);
  const auto data = synthetic_dataset(static_cast<std::size_t>(state.range(0)), 3, rng);
  for (auto _ : state) {
    const features::DatasetMatrix matrix(data);
    benchmark::DoNotOptimize(matrix.column(0).data());
  }
}
BENCHMARK(BM_DatasetMatrixBuild)->Arg(5000);

void BM_KnnPredict(benchmark::State& state) {
  Rng rng(3);
  const auto data = synthetic_dataset(static_cast<std::size_t>(state.range(0)), 3, rng);
  ml::Knn knn(ml::KnnConfig{4});
  knn.fit(data);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(knn.predict(data.samples[i % data.size()].features));
    ++i;
  }
}
BENCHMARK(BM_KnnPredict)->Arg(1000)->Arg(10000);

void BM_LogRegTrain(benchmark::State& state) {
  Rng rng(3);
  const auto data = synthetic_dataset(2000, 3, rng);
  for (auto _ : state) {
    ml::LogisticRegression lr(ml::LogRegConfig{.epochs = 30});
    lr.fit(data);
    benchmark::DoNotOptimize(lr.predict(data.samples[0].features));
  }
}
BENCHMARK(BM_LogRegTrain);

void BM_CnnTrain(benchmark::State& state) {
  Rng rng(3);
  const auto data = synthetic_dataset(1000, 3, rng);
  for (auto _ : state) {
    ml::Cnn1D cnn(ml::CnnConfig{.epochs = 10});
    cnn.fit(data);
    benchmark::DoNotOptimize(cnn.predict(data.samples[0].features));
  }
}
BENCHMARK(BM_CnnTrain);

void BM_CollectTraceLab(benchmark::State& state) {
  attacks::CollectConfig config;
  config.op = lte::Operator::kLab;
  config.duration = seconds(10);
  std::uint64_t seed = 100;
  for (auto _ : state) {
    config.seed = ++seed;
    benchmark::DoNotOptimize(attacks::collect_trace(apps::AppId::kSkype, config));
  }
  state.counters["sim_ms_per_iter"] = static_cast<double>(config.duration);
}
BENCHMARK(BM_CollectTraceLab)->Unit(benchmark::kMillisecond);

// --- thread-scaling benchmarks -------------------------------------------
// Arg pattern {work, threads}: each sets the pool size for its run and
// restores the session default after, so the ns/op across thread counts is
// the speedup curve (the outputs themselves are bit-identical by the
// determinism contract).

int g_default_threads = 0;  // set by main() after flag parsing

class ThreadArg {
 public:
  explicit ThreadArg(std::int64_t threads) { set_thread_count(static_cast<int>(threads)); }
  ~ThreadArg() { set_thread_count(g_default_threads); }
};

void BM_RandomForestTrainPar(benchmark::State& state) {
  const ThreadArg threads(state.range(1));
  Rng rng(3);
  const auto data = synthetic_dataset(static_cast<std::size_t>(state.range(0)), 3, rng);
  for (auto _ : state) {
    ml::RandomForest rf(ml::ForestConfig{.num_trees = 20});
    rf.fit(data);
    benchmark::DoNotOptimize(rf.tree_count());
  }
  state.counters["threads"] = static_cast<double>(thread_count());
}
BENCHMARK(BM_RandomForestTrainPar)
    ->Args({5000, 1})
    ->Args({5000, 2})
    ->Args({5000, 4})
    ->Unit(benchmark::kMillisecond);

void BM_DtwMatrixPar(benchmark::State& state) {
  const ThreadArg threads(state.range(1));
  Rng rng(5);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<double>> series(n);
  for (auto& s : series) {
    s.resize(180);
    for (auto& v : s) v = rng.uniform(0, 50);
  }
  dtw::DtwOptions options;
  options.band = 22;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw::similarity_matrix(series, options));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * (n + 1) / 2));
  // Operand traffic: two 180-sample series per computed pair.
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * (n + 1) / 2 * 2 * 180 *
                                               sizeof(double)));
  state.counters["threads"] = static_cast<double>(thread_count());
}
BENCHMARK(BM_DtwMatrixPar)->Args({24, 1})->Args({24, 2})->Args({24, 4})->Unit(benchmark::kMillisecond);

void BM_BlindDecodeBatchPar(benchmark::State& state) {
  const ThreadArg threads(state.range(1));
  Rng rng(7);
  std::vector<lte::PdcchSubframe> subframes;
  for (int i = 0; i < 3000; ++i) {
    auto sf = make_subframe(8, rng);
    sf.time = i;
    subframes.push_back(std::move(sf));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sniffer::blind_decode(subframes));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(subframes.size() * 8));
  state.counters["threads"] = static_cast<double>(thread_count());
}
BENCHMARK(BM_BlindDecodeBatchPar)->Args({0, 1})->Args({0, 2})->Args({0, 4});

void BM_CollectTracesPar(benchmark::State& state) {
  const ThreadArg threads(state.range(1));
  attacks::CollectConfig config;
  config.op = lte::Operator::kLab;
  config.duration = seconds(5);
  config.seed = 100;
  const int sessions = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(attacks::collect_traces(apps::AppId::kSkype, sessions, config));
  }
  state.counters["threads"] = static_cast<double>(thread_count());
  state.counters["sessions"] = sessions;
}
BENCHMARK(BM_CollectTracesPar)->Args({4, 1})->Args({4, 2})->Args({4, 4})->Unit(benchmark::kMillisecond);

// The campaign's collect schedule: every (app, session) of a T-Mobile
// campaign on the pool, claimed heaviest estimated session first. Unlike
// the lab sessions above, commercial sessions differ in cell load, so the
// claim order decides how long the last worker runs alone.
void BM_CollectAllTraces(benchmark::State& state) {
  const ThreadArg threads(state.range(0));
  attacks::PipelineConfig config;
  config.op = lte::Operator::kTmobile;
  config.traces_per_app = 2;
  config.trace_duration = seconds(5);
  config.seed = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(attacks::collect_all_traces(config));
  }
  state.counters["threads"] = static_cast<double>(thread_count());
  state.counters["sessions"] = apps::kNumApps * config.traces_per_app;
}
BENCHMARK(BM_CollectAllTraces)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// --- city-scale event engine benchmarks ----------------------------------

// Every city bench advances one city further into its simulated day, so
// each pins its iteration count: google-benchmark's own choice would vary
// from run to run and across thread counts, and ns/op would then cover a
// different stretch of city time each run. A fresh city per benchmark run
// keeps repetitions on the same stretch too.

/// City populations for the engine benches: sparse diurnal activity (the
/// workload the timer wheel exists for), ~1000 UEs per cell, no commute
/// churn so runs measure the steady state.
apps::CityOptions diurnal_city(std::size_t ues) {
  apps::CityOptions options;
  options.seed = 21;
  options.cells = std::max<std::size_t>(1, ues / 1000);
  options.ues_per_cell = ues / options.cells;
  options.commuter_fraction = 0.0;
  return options;
}

/// Wheel engine: events/s is the dispatch throughput (UE wake-ups actually
/// processed), sim_ms/s the simulated-time rate — the speedup claim in
/// DESIGN.md compares the latter against BM_SimStepRef at equal UE count.
void BM_SimStep(benchmark::State& state) {
  apps::CityScenario city(diurnal_city(static_cast<std::size_t>(state.range(0))));
  city.run_for(1000);  // fill the wheel / reach steady state
  const std::uint64_t events_before = city.sim().ue_events();
  constexpr TimeMs kChunk = 64;
  for (auto _ : state) {
    city.run_for(kChunk);
    benchmark::DoNotOptimize(city.sim().now());
  }
  const auto events = static_cast<std::int64_t>(city.sim().ue_events() - events_before);
  state.SetItemsProcessed(events);
  state.counters["events_per_s"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["sim_ms_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kChunk), benchmark::Counter::kIsRate);
  state.counters["ues"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_SimStep)->Arg(1'000)->Iterations(50'000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimStep)->Arg(100'000)->Iterations(400)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimStep)->Arg(1'000'000)->Iterations(40)->Unit(benchmark::kMillisecond);

/// Seed-era dense loop on the identical population: every UE polled every
/// subframe. The events counter deliberately uses the same definition
/// (process_ue dispatches), so events/s here is poll throughput.
void BM_SimStepRef(benchmark::State& state) {
  apps::CityScenario city(diurnal_city(static_cast<std::size_t>(state.range(0))));
  city.sim().run_for_reference(1000);
  const std::uint64_t events_before = city.sim().ue_events();
  constexpr TimeMs kChunk = 16;
  for (auto _ : state) {
    city.sim().run_for_reference(kChunk);
    benchmark::DoNotOptimize(city.sim().now());
  }
  const auto events = static_cast<std::int64_t>(city.sim().ue_events() - events_before);
  state.SetItemsProcessed(events);
  state.counters["events_per_s"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["sim_ms_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kChunk), benchmark::Counter::kIsRate);
  state.counters["ues"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_SimStepRef)->Arg(1'000)->Iterations(6'000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimStepRef)->Arg(100'000)->Iterations(50)->Unit(benchmark::kMillisecond);

/// Sharded phase scaling: a busy city (short think gaps, so most cells are
/// non-quiescent and >= kMinDueForSharding UEs are due per subframe) at
/// 1/2/4/8 worker threads. Bit-identity across these thread counts is
/// asserted in tests/test_city_engine.cpp; here we measure the scaling.
void BM_SimStepPar(benchmark::State& state) {
  const ThreadArg threads(state.range(1));
  // Fresh scenario per (cells, threads) pair: a shared instance would hand
  // each thread count a different stretch of the simulated day.
  apps::CityOptions options;
  options.seed = 23;
  options.cells = static_cast<std::size_t>(state.range(0));
  options.ues_per_cell = 2'000;  // busy: most cells non-quiescent every ms
  options.commuter_fraction = 0.0;
  options.activity.base_gap_ms = 2'000;
  options.activity.session_mean_ms = 5'000;
  apps::CityScenario city(options);
  city.run_for(1000);
  const std::uint64_t events_before = city.sim().ue_events();
  constexpr TimeMs kChunk = 32;
  for (auto _ : state) {
    city.run_for(kChunk);
    benchmark::DoNotOptimize(city.sim().now());
  }
  const auto events = static_cast<std::int64_t>(city.sim().ue_events() - events_before);
  state.SetItemsProcessed(events);
  state.counters["events_per_s"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["sim_ms_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kChunk), benchmark::Counter::kIsRate);
  state.counters["threads"] = static_cast<double>(thread_count());
}
BENCHMARK(BM_SimStepPar)
    ->Args({8, 1})
    ->Args({8, 2})
    ->Args({8, 4})
    ->Args({8, 8})
    ->Iterations(100)
    ->Unit(benchmark::kMillisecond);

/// The e2ebench city_live city (8 cells x 250 UEs, 30 % commuters, its
/// DiurnalSource activity, T-Mobile cells) advanced one subframe per
/// run_for(1), as the live attack drives it. Most subframes wake only a
/// handful of UEs, so this tracks the per-subframe floor of the engine and
/// the eNB step, not the sharded region.
void BM_SimStepSparse(benchmark::State& state) {
  const ThreadArg threads(state.range(0));
  apps::CityOptions options;
  options.seed = 1;
  options.cells = 8;
  options.ues_per_cell = 250;
  options.commuter_fraction = 0.3;
  options.activity = {minutes(1), 2'000, 1'000};
  options.profile = lte::operator_profile(lte::Operator::kTmobile);
  apps::CityScenario city(options);
  city.run_for(1000);
  const std::uint64_t events_before = city.sim().ue_events();
  for (auto _ : state) {
    city.run_for(1);
    benchmark::DoNotOptimize(city.sim().now());
  }
  const auto events = static_cast<std::int64_t>(city.sim().ue_events() - events_before);
  state.SetItemsProcessed(events);
  state.counters["threads"] = static_cast<double>(thread_count());
}
BENCHMARK(BM_SimStepSparse)->Arg(1)->Arg(4)->Iterations(200'000);

/// Full city-day floor: 10^6 UEs across 10^3 cells through the live
/// engine. Gated like the >= 1 GB corpus benches — minutes of wall time.
void BM_SimCityDayLarge(benchmark::State& state) {
  if (std::getenv("LTEFP_BENCH_LARGE") == nullptr) {
    state.SkipWithError("set LTEFP_BENCH_LARGE=1 to run the 10^6-UE city bench");
    return;
  }
  apps::CityScenario city(diurnal_city(1'000'000));
  city.run_for(1000);
  const std::uint64_t events_before = city.sim().ue_events();
  constexpr TimeMs kChunk = 10'000;  // 10 s of city time per iteration
  for (auto _ : state) {
    city.run_for(kChunk);
    benchmark::DoNotOptimize(city.sim().now());
  }
  const auto events = static_cast<std::int64_t>(city.sim().ue_events() - events_before);
  state.SetItemsProcessed(events);
  state.counters["events_per_s"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["sim_ms_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kChunk), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimCityDayLarge)->Iterations(1)->Unit(benchmark::kSecond);

// --- streaming daemon benchmarks -----------------------------------------

void BM_SpscQueue(benchmark::State& state) {
  // Cross-thread transfer through a ring far smaller than the item count:
  // the measured per-item cost includes wrap-around and backpressure — the
  // daemon's per-record hand-off floor. 0 is the shutdown sentinel.
  constexpr std::size_t kBatch = 1 << 14;
  SpscQueue<std::uint64_t> q(64);
  std::uint64_t sum = 0;
  std::thread consumer([&] {
    std::uint64_t v = 0;
    for (;;) {
      q.pop(v);
      if (v == 0) return;
      sum += v;
    }
  });
  for (auto _ : state) {
    for (std::size_t i = 0; i < kBatch; ++i) q.push(i + 1);
  }
  q.push(0);
  consumer.join();
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatch));
}
BENCHMARK(BM_SpscQueue);

/// Synthetic multi-lane arrival stream in merged (time, lane) order, plus a
/// small forest trained on same-dimension features — the daemon's inputs
/// without simulator cost.
struct StreamBenchSetup {
  std::vector<stream::StreamRecord> records;
  ml::RandomForest model{ml::ForestConfig{.num_trees = 20}};

  explicit StreamBenchSetup(std::size_t lanes, std::size_t per_lane) {
    Rng rng(11);
    model.fit(synthetic_dataset(2000, 3, rng));
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
      TimeMs time = static_cast<TimeMs>(lane);
      for (std::size_t i = 0; i < per_lane; ++i) {
        if (!rng.bernoulli(0.2)) time += rng.uniform_int(1, 40);
        stream::StreamRecord r;
        r.lane = lane;
        r.record.time = time;
        r.record.rnti = static_cast<lte::Rnti>(100 + lane);
        r.record.direction =
            rng.bernoulli(0.6) ? lte::Direction::kDownlink : lte::Direction::kUplink;
        r.record.tb_bytes = static_cast<int>(rng.uniform_int(16, 3000));
        r.record.cell = 1;
        records.push_back(r);
      }
    }
    std::stable_sort(records.begin(), records.end(),
                     [](const stream::StreamRecord& a, const stream::StreamRecord& b) {
                       return a.record.time != b.record.time ? a.record.time < b.record.time
                                                             : a.lane < b.lane;
                     });
  }
};

void BM_StreamIngest(benchmark::State& state) {
  // End-to-end daemon throughput (records ingested -> verdicts merged) at
  // 1/2/4 workers over 8 lanes; ns/op across the Args is the scaling curve.
  const StreamBenchSetup setup(8, 2000);
  stream::StreamConfig config;
  config.workers = static_cast<int>(state.range(0));
  config.emit_window_verdicts = true;
  std::size_t verdicts = 0;
  for (auto _ : state) {
    stream::VectorSource source(setup.records);
    stream::CollectorSink sink;
    stream::StreamDaemon daemon(setup.model, config);
    const stream::StreamStats stats = daemon.run(source, sink);
    verdicts = sink.verdicts().size();
    benchmark::DoNotOptimize(stats.records);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(setup.records.size()));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(setup.records.size() *
                                               sizeof(sniffer::TraceRecord)));
  state.counters["verdicts"] = static_cast<double>(verdicts);
  // The daemon worker count is the benchmark arg, not the global pool size
  // (which stays at the session default here) — without this the JSON rows
  // for /2 and /4 all claimed one thread.
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_StreamIngest)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_StreamVerdictLatency(benchmark::State& state) {
  // Decision latency distribution (window_end - last record, sim time) per
  // full daemon pass; the acceptance gate is p99 under one subframe batch.
  const StreamBenchSetup setup(8, 2000);
  stream::StreamConfig config;
  config.workers = 2;
  stream::StreamStats stats;
  for (auto _ : state) {
    stream::VectorSource source(setup.records);
    stream::CollectorSink sink;
    stream::StreamDaemon daemon(setup.model, config);
    stats = daemon.run(source, sink);
    benchmark::DoNotOptimize(stats.window_verdicts);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(stats.window_verdicts));
  state.counters["lat_p50_ms"] = stats.latency.p50();
  state.counters["lat_p95_ms"] = stats.latency.p95();
  state.counters["lat_p99_ms"] = stats.latency.p99();
  state.counters["lat_max_ms"] = stats.latency.max();
}
BENCHMARK(BM_StreamVerdictLatency)->Unit(benchmark::kMillisecond);

void BM_StreamReplaySparse(benchmark::State& state) {
  // Capture-once/replay-many: a city-day corpus (8 cells x 8 UEs x 24 h,
  // 0.5 sessions per UE-hour), written once, replayed through ReplaySource
  // and the daemon per iteration. Its lanes are corpus seqs, cell * 24 +
  // hour, so the 8 lanes live in any hour share a stride of 24, and a
  // watermark carries few records. /1 against /4 shows how much of the
  // replay the workers share, which they do only if the lanes of an hour
  // land on different workers.
  static const BenchCorpus corpus = [] {
    tracestore::SynthOptions options;
    options.seed = 7;
    options.cells = 8;
    options.hours = 24;
    options.ues_per_cell = 8;
    options.sessions_per_ue_hour = 0.5;
    return BenchCorpus("replay", options);
  }();
  static const ml::RandomForest model = [] {
    Rng rng(11);
    ml::RandomForest rf(ml::ForestConfig{.num_trees = 20});
    rf.fit(synthetic_dataset(2000, 3, rng));
    return rf;
  }();
  stream::StreamConfig config;
  config.workers = static_cast<int>(state.range(0));
  std::size_t records = 0;
  for (auto _ : state) {
    stream::ReplaySource source(corpus.dir);
    stream::CollectorSink sink;
    const stream::StreamStats stats = stream::StreamDaemon(model, config).run(source, sink);
    records = stats.records;
    benchmark::DoNotOptimize(sink.verdicts().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(records));
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_StreamReplaySparse)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// --- custom main: --json / --threads + google-benchmark ------------------

/// Console output as usual, plus a machine-readable capture of every run.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& r : runs) {
      if (r.error_occurred || r.run_type != Run::RT_Iteration) continue;
      Row row;
      row.name = r.benchmark_name();
      row.iterations = r.iterations;
      // real_accumulated_time is seconds over all iterations, independent
      // of the per-benchmark display unit.
      row.ns_per_op =
          r.iterations > 0 ? r.real_accumulated_time / static_cast<double>(r.iterations) * 1e9
                           : 0.0;
      const auto bytes = r.counters.find("bytes_per_second");
      row.bytes_per_s = bytes != r.counters.end() ? bytes->second.value : 0.0;
      const auto threads = r.counters.find("threads");
      row.threads = threads != r.counters.end() ? static_cast<int>(threads->second.value)
                                                : g_default_threads;
      rows.push_back(std::move(row));
    }
  }

  struct Row {
    std::string name;
    std::int64_t iterations = 0;
    double ns_per_op = 0.0;
    double bytes_per_s = 0.0;
    int threads = 1;
  };
  std::vector<Row> rows;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

/// The processor's brand string, from CPUID.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string model(brand);
    model.erase(0, model.find_first_not_of(' '));
    model.erase(model.find_last_not_of(' ') + 1);
    if (!model.empty()) return model;
  }
#endif
  return "unknown";
}

/// {"host": {...}, "rows": [...]}: the host block on the first line, then
/// one row per line.
void write_json(const std::string& path, const std::vector<CaptureReporter::Row>& rows) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"host\": {\"nproc\": " << online_cpus() << ", \"cpu_model\": \""
      << json_escape(cpu_model()) << "\", \"simd_tier\": \"" << to_string(simd_tier())
      << "\", \"build_type\": \"" << json_escape(LTEFP_BUILD_TYPE) << "\", \"compiler\": \""
      << json_escape(LTEFP_COMPILER) << "\", \"pool_threads\": " << g_default_threads
      << ", \"daemon_workers\": " << g_default_threads << "},\n\"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "  {\"name\": \"%s\", \"iterations\": %lld, \"ns_per_op\": %.3f, "
                  "\"bytes_per_s\": %.1f, \"threads\": %d}%s\n",
                  json_escape(r.name).c_str(), static_cast<long long>(r.iterations),
                  r.ns_per_op, r.bytes_per_s, r.threads, i + 1 < rows.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our flags before google-benchmark parses the rest.
  std::string json_path;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      set_thread_count(ltefp::bench::parse_int_or(argv[++i], 0));
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  g_default_threads = thread_count();

  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) return 1;
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty()) {
    write_json(json_path, reporter.rows);
    std::fprintf(stderr, "wrote %zu benchmark rows to %s\n", reporter.rows.size(),
                 json_path.c_str());
  }
  return 0;
}
