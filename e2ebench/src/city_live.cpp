// Workload `city_live`: the live targeted attack across a city.
//
// A CityScenario is stepped by the benchmark one subframe at a time, with
// one Sniffer per cell. Each decoded record is tagged with a victim lane:
// the TMSI its cell's IdentityMapper binds the RNTI to at that moment, or
// a (cell, RNTI) lane when no binding is known. The records feed the
// StreamDaemon in (time, lane) order through a pull source, so the
// simulation, blind decode and identity map run on the daemon's driver
// thread exactly as a live capture would.
#include <algorithm>
#include <string>
#include <tuple>
#include <unordered_map>

#include "apps/population.hpp"
#include "common/parallel.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "lte/operator_profile.hpp"
#include "probes.hpp"
#include "sniffer/sniffer.hpp"
#include "stream/daemon.hpp"

namespace e2e {
namespace {

using namespace ltefp;

struct CitySize {
  std::size_t cells;
  std::size_t ues_per_cell;
  /// Sim time the timed phase tails the city for.
  TimeMs sim_ms;
  /// Subscriber activity. Sessions are short and frequent so the volume is
  /// an average over many sessions rather than a few long video streams.
  apps::DiurnalSource::Params activity;
  int forest_traces_per_app;
  TimeMs forest_trace_ms;
  int forest_trees;
};

const CitySize kFullSize{8, 250, minutes(2), {minutes(1), 2'000, 1'000}, 1, seconds(30), 30};
const CitySize kSmokeSize{2, 20, minutes(1), {minutes(1), 8'000, 2'000}, 1, seconds(5), 5};

/// Pull source over a running city. next() steps the simulation until a
/// subframe yields records, then hands them out in (time, lane) order.
class LiveCitySource final : public stream::StreamSource {
 public:
  LiveCitySource(apps::CityScenario& city,
                 const std::vector<std::unique_ptr<sniffer::Sniffer>>& sniffers,
                 const CitySize& size, Coalescer& decode_span, bool traced)
      : city_(city), sniffers_(sniffers), size_(size), decode_span_(decode_span), traced_(traced) {
    for (const auto& s : sniffers_) {
      s->set_record_hook([this](const sniffer::TraceRecord& r) { pending_.push_back(r); });
    }
  }

  ~LiveCitySource() override {
    for (const auto& s : sniffers_) s->set_record_hook({});
  }

  LiveCitySource(const LiveCitySource&) = delete;
  LiveCitySource& operator=(const LiveCitySource&) = delete;

  bool next(stream::StreamRecord& out) override {
    while (pos_ == ready_.size()) {
      if (city_.sim().now() >= size_.sim_ms) {
        decode_span_.flush(group_);
        step_span_.flush(group_);
        return false;
      }
      step();
    }
    out = ready_[pos_++];
    return true;
  }

  std::size_t records() const { return records_; }
  std::size_t mapped() const { return mapped_; }
  /// Per-subframe step time minus the sniffer time inside it (traced only).
  const std::vector<double>& step_self_us() const { return step_self_us_; }

 private:
  void step() {
    const std::uint64_t batch = batch_of(city_.sim().now());
    if (batch != group_) {
      decode_span_.flush(group_);
      step_span_.flush(group_);
      group_ = batch;
    }
    const std::int64_t decode_before = decode_span_.total_busy_ns();
    const std::int64_t t = step_span_.enter();
    city_.run_for(1);
    const std::int64_t took = step_span_.exit(t);
    if (traced_) {
      step_self_us_.push_back(
          static_cast<double>(took - (decode_span_.total_busy_ns() - decode_before)) / 1e3);
    }

    ready_.clear();
    pos_ = 0;
    for (const sniffer::TraceRecord& r : pending_) ready_.push_back({lane_of(r), r});
    records_ += pending_.size();
    pending_.clear();
    // The hooks already delivered every record; keep sniffer memory flat.
    for (const auto& s : sniffers_) s->clear_records();
    std::stable_sort(ready_.begin(), ready_.end(), [](const auto& a, const auto& b) {
      return std::tie(a.record.time, a.lane) < std::tie(b.record.time, b.lane);
    });
  }

  std::uint32_t lane_of(const sniffer::TraceRecord& r) {
    // Lane ids are dense, in first-seen order, so they are a pure function
    // of the record stream.
    const auto intern = [this](std::unordered_map<std::uint64_t, std::uint32_t>& lanes,
                               std::uint64_t key) {
      const auto [it, inserted] = lanes.try_emplace(key, next_lane_);
      if (inserted) ++next_lane_;
      return it->second;
    };
    if (const auto tmsi = sniffers_[r.cell]->identities().tmsi_of(r.rnti, r.time)) {
      ++mapped_;
      return intern(tmsi_lanes_, *tmsi);
    }
    return intern(cell_rnti_lanes_, (static_cast<std::uint64_t>(r.cell) << 16) | r.rnti);
  }

  apps::CityScenario& city_;
  const std::vector<std::unique_ptr<sniffer::Sniffer>>& sniffers_;
  const CitySize& size_;
  Coalescer& decode_span_;
  Coalescer step_span_{"lte.step"};
  bool traced_;
  std::uint64_t group_ = 0;
  std::vector<sniffer::TraceRecord> pending_;  // filled by the sniffer hooks
  std::vector<stream::StreamRecord> ready_;
  std::size_t pos_ = 0;
  std::unordered_map<std::uint64_t, std::uint32_t> tmsi_lanes_, cell_rnti_lanes_;
  std::uint32_t next_lane_ = 0;
  std::size_t records_ = 0;
  std::size_t mapped_ = 0;
  std::vector<double> step_self_us_;
};

class CityLive final : public Workload {
 public:
  explicit CityLive(CitySize size) : size_(size) {}

  void setup(std::uint64_t seed, int threads, bool traced) override {
    start_pool(threads);
    seed_ = seed;
    traced_ = traced;
    city_.reset();  // observers must outlive the simulation
    probes_.clear();
    sniffers_.clear();
    forest_ = train_daemon_forest(derive_seed({seed, 0xF07E57ULL}), size_.forest_traces_per_app,
                                  size_.forest_trace_ms, size_.forest_trees);

    apps::CityOptions options;
    options.seed = seed;
    options.cells = size_.cells;
    options.ues_per_cell = size_.ues_per_cell;
    options.commuter_fraction = 0.3;
    options.activity = size_.activity;
    options.profile = lte::operator_profile(lte::Operator::kTmobile);
    city_ = std::make_unique<apps::CityScenario>(options);

    decode_span_ = std::make_unique<Coalescer>("sniffer.decode");
    sniffer::SnifferConfig sniff;
    sniff.miss_rate = options.profile.sniffer_miss_rate;
    sniff.false_rate = options.profile.sniffer_false_rate;
    for (std::size_t cell = 0; cell < size_.cells; ++cell) {
      sniffers_.push_back(std::make_unique<sniffer::Sniffer>(
          sniff, Rng(derive_seed({seed, 0x5A1FFULL, cell}))));
      lte::PdcchObserver* observer = sniffers_.back().get();
      if (traced) {
        probes_.push_back(std::make_unique<ProbedObserver>(*sniffers_.back(), *decode_span_));
        observer = probes_.back().get();
      }
      city_->sim().add_observer(static_cast<lte::CellId>(cell), *observer);
    }
  }

  void run(Recorder& rec) override {
    const Live live = stream_live(/*keep_records=*/false);
    const stream::StreamStats& stats = live.stats;
    rec.rep("records_per_s", "1/s", static_cast<double>(stats.records) / live.wall_s);
    rec.latencies("decision_latency", "ms", live.latency_ms);

    std::size_t paging = 0, confirmed = 0;
    for (const auto& s : sniffers_) {
      paging += s->paging_count();
      confirmed += s->identities().confirmed_count();
    }
    rec.count("lte.ue_events", "count", static_cast<double>(city_->sim().ue_events()));
    rec.count("lte.subframes", "count", static_cast<double>(city_->sim().now()));
    if (!live.step_self_us.empty()) {
      std::vector<double> steps = live.step_self_us;
      const auto k = static_cast<std::ptrdiff_t>(static_cast<double>(steps.size() - 1) * 0.99);
      std::nth_element(steps.begin(), steps.begin() + k, steps.end());
      rec.count("lte.step_p99_us", "us", steps[static_cast<std::size_t>(k)]);
    }
    rec.count("sniffer.records", "count", static_cast<double>(live.records));
    rec.count("sniffer.paging", "count", static_cast<double>(paging));
    rec.count("sniffer.identity_confirmed", "count", static_cast<double>(confirmed));
    rec.count("sniffer.mapped_frac", "ratio",
              static_cast<double>(live.mapped) / static_cast<double>(live.records));
    record_stream_counters(rec, stats, live.predicted_rows);
    digest_ = digest_of(live.verdicts);
  }

  std::uint64_t digest() const override { return digest_; }

  // Outside the timed phase: run the live city once more while recording
  // every record it yields, then replay the recording through a
  // VectorSource. The two verdict streams must be byte-identical, and equal
  // to the timed runs' stream.
  CheckResult check() override {
    const std::uint64_t timed_digest = digest_;
    setup(seed_, thread_count(), false);
    Live live = stream_live(/*keep_records=*/true);
    stream::VectorSource replay(std::move(live.records_kept));
    stream::CollectorSink sink;
    stream::StreamDaemon daemon(*forest_, stream::StreamConfig{});
    daemon.run(replay, sink);
    CheckResult result;
    result.expect(digest_of(live.verdicts) == timed_digest);
    const auto& oracle = sink.verdicts();
    for (std::size_t i = 0; i < std::max(live.verdicts.size(), oracle.size()); ++i) {
      result.expect(i < live.verdicts.size() && i < oracle.size() &&
                    stream::to_csv(live.verdicts[i]) == stream::to_csv(oracle[i]));
    }
    return result;
  }

 private:
  struct Live {
    stream::StreamStats stats;
    double wall_s = 0.0;
    std::vector<stream::VerdictRecord> verdicts;
    std::vector<double> latency_ms;
    std::vector<stream::StreamRecord> records_kept;
    std::vector<double> step_self_us;
    std::size_t records = 0;
    std::size_t mapped = 0;
    std::size_t predicted_rows = 0;
  };

  /// Streams the city set up last through the daemon.
  Live stream_live(bool keep_records) {
    LiveCitySource city(*city_, sniffers_, size_, *decode_span_, traced_);
    ProbedSource source(city, keep_records);
    ProbedClassifier model(*forest_, source.batch());
    ProbedSink sink(source);
    stream::StreamDaemon daemon(model, stream::StreamConfig{});
    Live live;
    const std::int64_t t0 = now_ns();
    {
      const ScopedSpan span("stream.run");
      live.stats = daemon.run(source, sink);
    }
    live.wall_s = seconds_since(t0);
    sink.finish();
    live.verdicts = sink.verdicts();
    live.latency_ms = sink.latency_ms();
    live.records_kept = std::move(source.kept());
    live.step_self_us = city.step_self_us();
    live.records = city.records();
    live.mapped = city.mapped();
    live.predicted_rows = model.rows();
    return live;
  }

  static std::uint64_t digest_of(const std::vector<stream::VerdictRecord>& verdicts) {
    std::uint64_t h = fnv1a(nullptr, 0);
    for (const auto& v : verdicts) {
      const std::string line = stream::to_csv(v);
      h = fnv1a(line.data(), line.size(), h);
    }
    return h;
  }

 private:
  CitySize size_;
  bool traced_ = false;
  std::unique_ptr<ml::RandomForest> forest_;
  std::unique_ptr<Coalescer> decode_span_;
  std::vector<std::unique_ptr<sniffer::Sniffer>> sniffers_;
  std::vector<std::unique_ptr<ProbedObserver>> probes_;
  std::unique_ptr<apps::CityScenario> city_;  // declared last: destroyed first
  std::uint64_t seed_ = 0;
  std::uint64_t digest_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_city_live(bool smoke) {
  return std::make_unique<CityLive>(smoke ? kSmokeSize : kFullSize);
}

}  // namespace e2e
