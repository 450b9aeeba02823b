// Workload `corpus_forensics`: capture once, replay many.
//
// Set-up generates a procedural city-day corpus (synth_city_day) and loads
// it into memory. The timed phase is what an attacker does with such a
// capture: (1) write it as a compressed, sharded v2 corpus; (2) targeted
// victim lookups, each a Corpus::range_scan by cell + RNTI + a time window
// of mixed width; (3) a contact screen, ranking every victim active in the
// same hour against a few targets; (4) a full ReplaySource replay through
// the StreamDaemon. Traffic is sparse, so the daemon's per-watermark cost
// dominates rather than its per-record cost.
#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>

#include "attacks/correlation.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "dtw/dtw.hpp"
#include "probes.hpp"
#include "stream/daemon.hpp"
#include "tracestore/corpus.hpp"
#include "tracestore/synth.hpp"

namespace e2e {
namespace {

using namespace ltefp;
namespace fs = std::filesystem;

struct CorpusSize {
  std::size_t cells;
  std::size_t ues_per_cell;
  std::size_t hours;
  double sessions_per_ue_hour;
  std::size_t lookups;
  std::size_t screen_hours;
  std::size_t targets_per_hour;
  std::size_t top_k;
  int forest_traces_per_app;
  TimeMs forest_trace_ms;
  int forest_trees;
};

constexpr CorpusSize kFullSize{8, 64, 24, 0.5, 1024, 2, 4, 5, 1, seconds(30), 30};
constexpr CorpusSize kSmokeSize{2, 8, 2, 2.0, 64, 1, 2, 3, 1, seconds(5), 5};

constexpr std::array<TimeMs, 4> kLookupWidths{seconds(10), minutes(1), minutes(10), kMsPerHour};
constexpr TimeMs kScreenBinMs = seconds(1);  // the paper's T_w
/// Each target is screened over the five minutes from its first record:
/// candidates silent then cost no DP at all, as in a real screen.
constexpr TimeMs kScreenWindowMs = minutes(5);

/// One target of the contact screen and the victims it is ranked against.
struct Screen {
  TimeMs origin = 0;
  sniffer::Trace target;
  const std::vector<sniffer::Trace>* candidates = nullptr;
};

std::uint64_t hash_record(std::uint64_t h, const sniffer::TraceRecord& r) {
  const std::array<std::int64_t, 5> fields{r.time, r.rnti, static_cast<std::int64_t>(r.direction),
                                           r.tb_bytes, r.cell};
  return fnv1a(fields.data(), sizeof(fields), h);
}

std::uint64_t hash_match(std::uint64_t h, const dtw::Match& m) {
  std::array<std::uint64_t, 3> fields{m.index, 0, 0};
  std::memcpy(&fields[1], &m.similarity, sizeof(double));
  std::memcpy(&fields[2], &m.distance, sizeof(double));
  return fnv1a(fields.data(), sizeof(fields), h);
}

std::vector<double> direction_series(const sniffer::Trace& trace, lte::Direction dir,
                                     TimeMs origin, std::size_t bins) {
  sniffer::Trace filtered;
  for (const auto& r : trace) {
    if (r.direction == dir) filtered.push_back(r);
  }
  return sniffer::frames_per_bin(filtered, origin, kScreenBinMs, bins);
}

class CorpusForensics final : public Workload {
 public:
  CorpusForensics(CorpusSize size, std::string work_dir)
      : size_(size),
        setup_dir_(work_dir + "/corpus_forensics_setup"),
        corpus_dir_(work_dir + "/corpus_forensics") {}

  void setup(std::uint64_t seed, int threads, bool /*traced*/) override {
    start_pool(threads);
    traces_.clear();
    lookups_.clear();
    rankings_.clear();
    verdicts_.clear();
    forest_ = train_daemon_forest(derive_seed({seed, 0xF07E57ULL}), size_.forest_traces_per_app,
                                  size_.forest_trace_ms, size_.forest_trees);

    tracestore::SynthOptions synth;
    synth.seed = seed;
    synth.cells = size_.cells;
    synth.hours = size_.hours;
    synth.ues_per_cell = size_.ues_per_cell;
    synth.sessions_per_ue_hour = size_.sessions_per_ue_hour;
    fs::remove_all(setup_dir_);
    tracestore::synth_city_day(setup_dir_, synth);
    traces_ = tracestore::Corpus::open(setup_dir_).load_all();
    fs::remove_all(setup_dir_);
    fs::remove_all(corpus_dir_);
    records_ = 0;
    for (const auto& t : traces_) records_ += t.trace.size();

    Rng rng(derive_seed({seed, 0x100CULL}));
    queries_.clear();
    for (std::size_t i = 0; i < size_.lookups; ++i) {
      const std::size_t cell = rng.index(size_.cells);
      const TimeMs width = kLookupWidths[i % kLookupWidths.size()];
      tracestore::RangeQuery q;
      q.filter.cell = static_cast<lte::CellId>(cell);
      q.rnti = tracestore::synth_rnti(seed, cell, rng.index(size_.ues_per_cell));
      q.t0 = rng.uniform_int(0, static_cast<std::int64_t>(size_.hours) * kMsPerHour - width);
      q.t1 = q.t0 + width - 1;
      queries_.push_back(q);
    }

    // Contact screen: in a few random hours, split every cell's capture
    // into per-victim traces; some victims become targets, the rest are
    // the candidates each of that hour's targets is ranked against.
    candidates_.clear();
    screens_.clear();
    std::vector<std::size_t> hours(size_.hours);
    for (std::size_t h = 0; h < hours.size(); ++h) hours[h] = h;
    for (std::size_t i = 0; i < size_.screen_hours; ++i) {
      std::swap(hours[i], hours[i + rng.index(hours.size() - i)]);
      const TimeMs origin = static_cast<TimeMs>(hours[i]) * kMsPerHour;
      std::map<std::pair<lte::CellId, lte::Rnti>, sniffer::Trace> victims;
      for (const auto& t : traces_) {
        if (t.entry.meta.session_start != origin) continue;
        for (const auto& r : t.trace) victims[{r.cell, r.rnti}].push_back(r);
      }
      std::vector<sniffer::Trace> all;
      for (auto& [key, trace] : victims) all.push_back(std::move(trace));
      candidates_.push_back(std::make_unique<std::vector<sniffer::Trace>>());
      for (std::size_t j = 0; j < size_.targets_per_hour && !all.empty(); ++j) {
        std::swap(all[rng.index(all.size())], all.back());
        const TimeMs start = all.back().front().time;
        screens_.push_back(Screen{start, std::move(all.back()), candidates_.back().get()});
        all.pop_back();
      }
      *candidates_.back() = std::move(all);
    }
  }

  void run(Recorder& rec) override {
    // (1) Write the capture as a compressed, sharded v2 corpus.
    tracestore::CorpusOptions options;
    options.trace.version = tracestore::kFormatVersionV2;
    options.trace.compress = true;
    options.entries_per_shard = 16;
    std::int64_t t = now_ns();
    std::size_t bytes = 0;
    {
      const ScopedSpan span("tracestore.write");
      tracestore::CorpusWriter writer(corpus_dir_, options);
      for (const auto& loaded : traces_) writer.add(loaded.entry.meta, loaded.trace);
      writer.finish();
      bytes = writer.total_bytes();
    }
    rec.rep("write_records_per_s", "1/s", static_cast<double>(records_) / seconds_since(t));

    // (2) Targeted victim lookups.
    std::optional<tracestore::Corpus> corpus;
    {
      const ScopedSpan span("tracestore.open");
      corpus.emplace(tracestore::Corpus::open(corpus_dir_));
    }
    lookups_.assign(queries_.size(), {});
    std::vector<double> lookup_us;
    lookup_us.reserve(queries_.size());
    tracestore::RangeScanStats scan_total;
    for (std::size_t i = 0; i < queries_.size(); ++i) {
      tracestore::RangeScanStats stats;
      t = now_ns();
      {
        const ScopedSpan span("tracestore.scan", i);
        lookups_[i] = corpus->range_scan(queries_[i], &stats);
      }
      lookup_us.push_back(static_cast<double>(now_ns() - t) / 1e3);
      scan_total.files_opened += stats.files_opened;
      scan_total.chunks_decoded += stats.chunks_decoded;
      scan_total.chunks_skipped += stats.chunks_skipped;
    }
    rec.latencies("lookup", "us", lookup_us);

    // (3) Contact screen.
    dtw::reset_kernel_counters();
    dtw::SearchStats search;
    rankings_.assign(screens_.size(), {});
    t = now_ns();
    for (std::size_t i = 0; i < screens_.size(); ++i) {
      const Screen& s = screens_[i];
      const ScopedSpan span("dtw.rank", i);
      attacks::CandidateRanking ranking = attacks::rank_candidate_contacts(
          s.target, *s.candidates, s.origin, kScreenBinMs, kScreenWindowMs, size_.top_k);
      rankings_[i] = std::move(ranking.matches);
      search.candidates += ranking.stats.candidates;
      search.full_dp += ranking.stats.full_dp;
      search.lb_kim_pruned += ranking.stats.lb_kim_pruned;
      search.lb_keogh_pruned += ranking.stats.lb_keogh_pruned;
      search.abandoned += ranking.stats.abandoned;
    }
    rec.rep("screen_targets_per_s", "1/s", static_cast<double>(screens_.size()) / seconds_since(t));
    const std::uint64_t dp_cells = dtw::kernel_counters().dp_cells;

    // (4) Full replay through the daemon.
    t = now_ns();
    stream::ReplaySource replay(corpus_dir_);
    ProbedSource source(replay, /*keep_records=*/false);
    ProbedClassifier model(*forest_, source.batch());
    ProbedSink sink(source);
    stream::StreamDaemon daemon(model, stream::StreamConfig{});
    stream::StreamStats stats;
    {
      const ScopedSpan span("stream.run");
      stats = daemon.run(source, sink);
    }
    rec.rep("records_per_s", "1/s", static_cast<double>(stats.records) / seconds_since(t));
    sink.finish();
    rec.latencies("decision_latency", "ms", sink.latency_ms());
    verdicts_ = sink.verdicts();

    record_stream_counters(rec, stats, model.rows());
    rec.count("tracestore.bytes_per_record", "B",
              static_cast<double>(bytes) / static_cast<double>(records_));
    rec.count("tracestore.files_opened", "count", static_cast<double>(scan_total.files_opened));
    rec.count("tracestore.chunks_decoded", "count",
              static_cast<double>(scan_total.chunks_decoded));
    rec.count("tracestore.chunk_prune_frac", "ratio",
              static_cast<double>(scan_total.chunks_skipped) /
                  static_cast<double>(
                      std::max<std::size_t>(1, scan_total.chunks_decoded + scan_total.chunks_skipped)));
    rec.count("dtw.candidates", "count", static_cast<double>(search.candidates));
    rec.count("dtw.full_dp", "count", static_cast<double>(search.full_dp));
    rec.count("dtw.pruned_frac", "ratio",
              static_cast<double>(search.pruned()) /
                  static_cast<double>(std::max<std::size_t>(1, search.candidates)));
    rec.count("dtw.dp_cells", "count", static_cast<double>(dp_cells));
  }

  std::uint64_t digest() const override {
    std::uint64_t h = fnv1a(nullptr, 0);
    for (const auto& slices : lookups_) {
      for (const auto& s : slices) {
        h = fnv1a(&s.entry.seq, sizeof(s.entry.seq), h);
        for (const auto& r : s.trace) h = hash_record(h, r);
      }
    }
    for (const auto& matches : rankings_) {
      for (const auto& m : matches) h = hash_match(h, m);
    }
    for (const auto& v : verdicts_) {
      const std::string line = stream::to_csv(v);
      h = fnv1a(line.data(), line.size(), h);
    }
    return h;
  }

  CheckResult check() override {
    CheckResult result;
    // Every lookup equals a brute-force filter of the in-memory capture.
    for (std::size_t i = 0; i < queries_.size(); ++i) {
      const tracestore::RangeQuery& q = queries_[i];
      std::vector<std::pair<std::size_t, sniffer::Trace>> expected;
      for (const auto& t : traces_) {
        if (t.entry.meta.cell != *q.filter.cell) continue;
        sniffer::Trace slice;
        for (const auto& r : t.trace) {
          if (r.rnti == *q.rnti && r.time >= q.t0 && r.time <= q.t1) slice.push_back(r);
        }
        if (!slice.empty()) expected.emplace_back(t.entry.seq, std::move(slice));
      }
      bool same = expected.size() == lookups_[i].size();
      for (std::size_t j = 0; same && j < expected.size(); ++j) {
        same = expected[j].first == lookups_[i][j].entry.seq &&
               expected[j].second == lookups_[i][j].trace;
      }
      result.expect(same);
    }

    // Every contact ranking equals full scoring of every candidate.
    const auto bins = static_cast<std::size_t>(kScreenWindowMs / kScreenBinMs);
    dtw::SearchOptions full;
    full.prune = false;
    full.dtw.band = static_cast<int>(std::max<std::size_t>(4, bins / 8));
    for (std::size_t i = 0; i < screens_.size(); ++i) {
      const Screen& s = screens_[i];
      const auto query = direction_series(s.target, lte::Direction::kUplink, s.origin, bins);
      std::vector<std::vector<double>> series;
      for (const auto& c : *s.candidates) {
        series.push_back(direction_series(c, lte::Direction::kDownlink, s.origin, bins));
      }
      const auto expected = dtw::top_k(query, series, size_.top_k, full);
      bool same = expected.size() == rankings_[i].size();
      for (std::size_t j = 0; same && j < expected.size(); ++j) {
        same = expected[j].index == rankings_[i][j].index &&
               expected[j].similarity == rankings_[i][j].similarity &&
               expected[j].distance == rankings_[i][j].distance;
      }
      result.expect(same);
    }

    // Replay verdicts equal a VectorSource oracle over the in-memory
    // capture (lane = corpus seq, merged in (time, lane) order).
    std::vector<stream::StreamRecord> records;
    records.reserve(records_);
    for (const auto& t : traces_) {
      for (const auto& r : t.trace) {
        records.push_back({static_cast<std::uint32_t>(t.entry.seq), r});
      }
    }
    std::stable_sort(records.begin(), records.end(), [](const auto& a, const auto& b) {
      return std::tie(a.record.time, a.lane) < std::tie(b.record.time, b.lane);
    });
    stream::VectorSource oracle_source(std::move(records));
    stream::CollectorSink oracle;
    stream::StreamDaemon daemon(*forest_, stream::StreamConfig{});
    daemon.run(oracle_source, oracle);
    for (std::size_t i = 0; i < std::max(verdicts_.size(), oracle.verdicts().size()); ++i) {
      result.expect(i < verdicts_.size() && i < oracle.verdicts().size() &&
                    verdicts_[i] == oracle.verdicts()[i]);
    }
    return result;
  }

 private:
  CorpusSize size_;
  std::string setup_dir_;
  std::string corpus_dir_;
  std::unique_ptr<ml::RandomForest> forest_;
  std::vector<tracestore::Corpus::LoadedTrace> traces_;
  std::size_t records_ = 0;
  std::vector<tracestore::RangeQuery> queries_;
  std::vector<std::unique_ptr<std::vector<sniffer::Trace>>> candidates_;  // per screened hour
  std::vector<Screen> screens_;
  std::vector<std::vector<tracestore::Corpus::LoadedTrace>> lookups_;
  std::vector<std::vector<dtw::Match>> rankings_;
  std::vector<stream::VerdictRecord> verdicts_;
};

}  // namespace

std::unique_ptr<Workload> make_corpus_forensics(bool smoke, const std::string& work_dir) {
  return std::make_unique<CorpusForensics>(smoke ? kSmokeSize : kFullSize, work_dir);
}

}  // namespace e2e
