// ltefp — command-line front end to the attack framework.
//
// Subcommands:
//   collect   capture one app session's PDCCH trace to CSV
//   record    capture a full training corpus to a binary tracestore dir
//   replay    run the fingerprinting experiment from a recorded corpus
//             (--speed N switches to a rate-controlled load generator)
//   stream    online classification: replay a corpus through the streaming
//             daemon, emitting a live verdict CSV
//   inspect   summarise a corpus manifest or verify one .ltt trace file
//   synth     generate a deterministic city-day corpus (cells x hours)
//   scan      time/RNTI range scan over a corpus via chunk directories
//   train     build a labeled dataset and train + save the RF model
//   classify  identify the app behind a captured trace CSV
//   history   run the multi-zone history attack end to end
//   correlate score a paired-vs-independent session for two users
//   info      print operator profiles and app catalogue
//
// Examples:
//   ltefp collect --app YouTube --operator T-Mobile --minutes 2 --out yt.csv
//   ltefp record --operator Lab --traces 3 --minutes 2 --out corpus/
//   ltefp replay --corpus corpus/
//   ltefp stream --corpus corpus/ --model model.rf --speed 100 --latency-report true
//   ltefp inspect --corpus corpus/
//   ltefp train --operator Lab --out model.rf
//   ltefp classify --model model.rf --trace yt.csv
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "attacks/citysynth.hpp"
#include "attacks/collect.hpp"
#include "common/parallel.hpp"
#include "lte/operator_profile.hpp"
#include "attacks/correlation.hpp"
#include "attacks/history.hpp"
#include "attacks/pipeline.hpp"
#include "attacks/replay.hpp"
#include "common/table.hpp"
#include "ml/serialize.hpp"
#include "stream/daemon.hpp"
#include "tracestore/corpus.hpp"
#include "tracestore/mapped_reader.hpp"
#include "tracestore/synth.hpp"

using namespace ltefp;

namespace {

/// Minimal flag parser: --name value pairs after the subcommand.
class Args {
 public:
  Args(int argc, char** argv, int start) {
    for (int i = start; i < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        throw std::runtime_error(std::string("expected --flag, got ") + argv[i]);
      }
      if (i + 1 == argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
        throw std::runtime_error(std::string("missing value for ") + argv[i]);
      }
      values_.emplace_back(argv[i] + 2, argv[i + 1]);
    }
  }

  /// Throws unless every flag given is `threads` or one of `accepted`, so
  /// a misspelt or unsupported flag is an error instead of a silently
  /// applied default.
  void reject_unknown(const std::string& command,
                      std::initializer_list<std::string_view> accepted) const {
    for (const auto& entry : values_) {
      const std::string& key = entry.first;
      if (key == "threads" || std::find(accepted.begin(), accepted.end(), key) != accepted.end()) {
        continue;
      }
      std::string list;
      for (const std::string_view flag : accepted) list += " --" + std::string(flag);
      throw std::runtime_error("unknown flag --" + key + " (" + command + " takes --threads" +
                               list + ")");
    }
  }

  std::optional<std::string> get(const std::string& name) const {
    for (const auto& [key, value] : values_) {
      if (key == name) return value;
    }
    return std::nullopt;
  }
  std::string get_or(const std::string& name, const std::string& fallback) const {
    return get(name).value_or(fallback);
  }
  double number(const std::string& name, double fallback) const {
    const auto v = get(name);
    if (!v) return fallback;
    double parsed = 0.0;
    const char* end = v->data() + v->size();
    const auto [ptr, ec] = std::from_chars(v->data(), end, parsed);
    if (ec != std::errc{} || ptr != end) {
      throw std::runtime_error("--" + name + ": expected a number, got '" + *v + "'");
    }
    return parsed;
  }

 private:
  std::vector<std::pair<std::string, std::string>> values_;
};

lte::Operator parse_operator(const std::string& name) {
  for (const lte::Operator op : {lte::Operator::kLab, lte::Operator::kVerizon,
                                 lte::Operator::kAtt, lte::Operator::kTmobile}) {
    if (name == lte::to_string(op)) return op;
  }
  throw std::runtime_error("unknown operator '" + name +
                           "' (use Lab, Verizon, AT&T, or T-Mobile)");
}

apps::AppId parse_app(const std::string& name) {
  const auto app = apps::app_from_string(name);
  if (!app) throw std::runtime_error("unknown app '" + name + "' (see `ltefp info`)");
  return *app;
}

/// Loads the --model forest. Its labels index the app catalogue, so a
/// forest with any other class count is rejected.
ml::RandomForest load_model(const Args& args) {
  const std::string path = args.get_or("model", "model.rf");
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  ml::RandomForest forest = ml::load_forest(in);
  if (forest.class_count() != apps::kNumApps) {
    throw std::runtime_error(path + ": model has " + std::to_string(forest.class_count()) +
                             " classes, expected one per app (" +
                             std::to_string(apps::kNumApps) + ")");
  }
  return forest;
}

int cmd_collect(const Args& args) {
  attacks::CollectConfig config;
  config.op = parse_operator(args.get_or("operator", "Lab"));
  config.duration = minutes(args.number("minutes", 2.0));
  config.seed = static_cast<std::uint64_t>(args.number("seed", 1.0));
  const apps::AppId app = parse_app(args.get_or("app", "YouTube"));

  std::fprintf(stderr, "collecting %s on %s for %.1f min...\n", apps::to_string(app),
               lte::to_string(config.op), static_cast<double>(config.duration) / 60000.0);
  const attacks::CollectedTrace capture = attacks::collect_trace(app, config);

  const std::string out_path = args.get_or("out", "trace.csv");
  std::ofstream out(out_path);
  if (!out) throw std::runtime_error("cannot write " + out_path);
  sniffer::write_csv(out, capture.trace);
  std::fprintf(stderr, "wrote %zu records (%zu RNTIs) to %s\n", capture.trace.size(),
               capture.rnti_count, out_path.c_str());
  return 0;
}

int cmd_record(const Args& args) {
  attacks::PipelineConfig config;
  config.op = parse_operator(args.get_or("operator", "Lab"));
  config.traces_per_app = static_cast<int>(args.number("traces", 2));
  config.trace_duration = minutes(args.number("minutes", 1.5));
  config.seed = static_cast<std::uint64_t>(args.number("seed", 42));
  config.day = static_cast<int>(args.number("day", 0));
  const std::string dir = args.get_or("out", "corpus");

  std::fprintf(stderr, "recording %d traces/app x %d apps on %s to %s...\n",
               config.traces_per_app, apps::kNumApps, lte::to_string(config.op), dir.c_str());
  const attacks::RecordResult result = attacks::record_corpus(config, dir);
  std::fprintf(stderr, "wrote %zu traces, %zu records, %zu bytes (CSV equivalent %zu bytes, "
               "ratio %.2fx smaller)\n",
               result.traces, result.records, result.corpus_bytes, result.csv_bytes,
               result.corpus_bytes > 0
                   ? static_cast<double>(result.csv_bytes) / static_cast<double>(result.corpus_bytes)
                   : 0.0);
  return 0;
}

/// Parses --speed: a positive sim-time-per-wall-time multiplier (absent: 0,
/// meaning unpaced / feature off).
double parse_speed(const Args& args) {
  if (!args.get("speed")) return 0.0;
  const double speed = args.number("speed", 0.0);
  if (speed <= 0.0) {
    throw std::runtime_error("--speed: expected a positive multiplier");
  }
  return speed;
}

/// A wall-clock pacer: sleeps so sim time advances at `speed` x real time.
/// Lives in the CLI because clocks are lint-banned in src/ — the daemon
/// only ever sees this as an opaque callback.
std::function<void(TimeMs)> make_pacer(double speed) {
  const auto start = std::chrono::steady_clock::now();
  return [start, speed](TimeMs sim) {
    const auto target =
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        static_cast<double>(sim) / speed));
    std::this_thread::sleep_until(target);
  };
}

/// Load generator: streams the corpus record-by-record at the requested
/// speed, reporting achieved throughput — for exercising downstream
/// consumers and sizing real-time budgets without classification cost.
int replay_load_generator(const std::string& dir, double speed) {
  stream::ReplaySource source(dir);
  const auto pacer = make_pacer(speed);
  const auto wall_start = std::chrono::steady_clock::now();
  stream::StreamRecord rec;
  std::size_t records = 0;
  TimeMs next_tick = stream::kSubframeBatchMs;
  TimeMs last_time = 0;
  while (source.next(rec)) {
    if (rec.record.time >= next_tick) {
      pacer(rec.record.time);
      next_tick = (rec.record.time / stream::kSubframeBatchMs + 1) * stream::kSubframeBatchMs;
    }
    last_time = rec.record.time;
    ++records;
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  std::printf("load generator: %zu records over %s sim at %.0fx -> %.2fs wall, %.0f records/s\n",
              records, format_hms(last_time).c_str(), speed, wall_s,
              wall_s > 0 ? static_cast<double>(records) / wall_s : 0.0);
  return 0;
}

int cmd_replay(const Args& args) {
  attacks::PipelineConfig config;
  config.replay_corpus = args.get_or("corpus", "corpus");
  config.seed = static_cast<std::uint64_t>(args.number("seed", 42));
  if (!tracestore::Corpus::exists(config.replay_corpus)) {
    throw std::runtime_error("no corpus manifest in " + config.replay_corpus +
                             " (run `ltefp record` first)");
  }
  if (const double speed = parse_speed(args); speed > 0.0) {
    return replay_load_generator(config.replay_corpus, speed);
  }
  std::fprintf(stderr, "replaying corpus %s through the fingerprinting pipeline...\n",
               config.replay_corpus.c_str());
  const auto scores = attacks::run_fingerprint_experiment(config);
  TextTable table({"Category", "Mobile App", "F-score", "Precision", "Recall"});
  for (const auto& s : scores) {
    table.add_row({apps::to_string(apps::category_of(s.app)), apps::to_string(s.app),
                   fmt(s.f_score), fmt(s.precision), fmt(s.recall)});
  }
  std::printf("%s", table.render("Replay classification (corpus-backed)").c_str());
  return 0;
}

int cmd_stream(const Args& args) {
  const std::string dir = args.get_or("corpus", "corpus");
  if (!tracestore::Corpus::exists(dir)) {
    throw std::runtime_error("no corpus manifest in " + dir + " (run `ltefp record` first)");
  }
  const ml::RandomForest forest = load_model(args);

  stream::StreamConfig config;
  config.window.window_ms = static_cast<TimeMs>(args.number("window-ms", 100));
  config.batch_ms = static_cast<TimeMs>(args.number("batch-ms",
                                                    static_cast<double>(stream::kSubframeBatchMs)));
  config.workers = static_cast<int>(args.number("workers", 0));  // 0: --threads / pool size
  config.emit_window_verdicts = args.get_or("window-verdicts", "true") == "true";
  const double speed = parse_speed(args);
  if (speed > 0.0) config.pacer = make_pacer(speed);

  std::ofstream out_file;
  std::ostream* out = &std::cout;
  if (const auto out_path = args.get("out")) {
    out_file.open(*out_path);
    if (!out_file) throw std::runtime_error("cannot write " + *out_path);
    out = &out_file;
  }

  stream::ReplaySource source(dir);
  std::fprintf(stderr, "streaming %zu lanes from %s (%s, batch %lld ms)...\n", source.lanes(),
               dir.c_str(), speed > 0 ? "paced" : "unpaced",
               static_cast<long long>(config.batch_ms));
  stream::CsvSink sink(*out);
  stream::StreamDaemon daemon(forest, config);
  const auto wall_start = std::chrono::steady_clock::now();
  const stream::StreamStats stats = daemon.run(source, sink);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  std::fprintf(stderr,
               "%zu records -> %zu sessions, %zu interim + %zu final verdicts in %zu batches "
               "(%.2fs wall, %.0f records/s)\n",
               stats.records, stats.sessions, stats.window_verdicts, stats.final_verdicts,
               stats.batches, wall_s,
               wall_s > 0 ? static_cast<double>(stats.records) / wall_s : 0.0);
  if (args.get_or("latency-report", "false") == "true") {
    std::fprintf(stderr, "decision latency (sim ms): p50<=%.0f p95<=%.0f p99<=%.0f max=%.0f\n",
                 stats.latency.p50(), stats.latency.p95(), stats.latency.p99(),
                 stats.latency.max());
    std::string depths;
    for (std::size_t i = 0; i < stats.queue_high_water.size(); ++i) {
      depths += (i ? " " : "") + std::to_string(stats.queue_high_water[i]);
    }
    std::fprintf(stderr, "queue high-water marks (capacity %zu): %s\n", config.queue_capacity,
                 depths.c_str());
    const bool ok = stats.latency.p99() < static_cast<double>(config.batch_ms);
    std::fprintf(stderr, "acceptance: p99 %.0f ms %s one subframe batch (%lld ms)\n",
                 stats.latency.p99(), ok ? "<" : ">=",
                 static_cast<long long>(config.batch_ms));
  }
  return 0;
}

int cmd_inspect(const Args& args) {
  if (const auto trace_path = args.get("trace")) {
    tracestore::MappedReader reader(*trace_path);
    const tracestore::TraceMeta& meta = reader.meta();
    const sniffer::Trace trace = reader.read_all();  // full CRC/framing/directory validation
    std::printf("%s: OK (format v%u%s, %zu directory chunks)\n", trace_path->c_str(),
                tracestore::kFormatVersionV2, reader.compressed() ? ", compressed" : "",
                reader.chunks().size());
    std::printf("  app=%u (%s) operator=%s day=%d seed=%llu cell=%u\n", meta.app,
                meta.label.c_str(), lte::to_string(meta.op), meta.day,
                static_cast<unsigned long long>(meta.seed), meta.cell);
    std::printf("  session_start=%s records=%zu total_bytes=%lld span=%s\n",
                format_hms(meta.session_start).c_str(), trace.size(), sniffer::total_bytes(trace),
                trace.empty() ? "0:00:00"
                              : format_hms(trace.back().time - trace.front().time).c_str());
    return 0;
  }

  const std::string dir = args.get_or("corpus", "corpus");
  const tracestore::Corpus corpus = tracestore::Corpus::open(dir);
  TextTable table({"Seq", "File", "App", "Operator", "Day", "Records", "Bytes", "Start"});
  std::size_t records = 0, bytes = 0;
  for (const auto& e : corpus.entries()) {
    table.add_row({std::to_string(e.seq), e.file, e.meta.label, lte::to_string(e.meta.op),
                   std::to_string(e.meta.day), std::to_string(e.records),
                   std::to_string(e.bytes), format_hms(e.meta.session_start)});
    records += e.records;
    bytes += e.bytes;
  }
  std::printf("%s", table.render("Corpus " + dir).c_str());
  std::printf("%zu traces, %zu records, %zu bytes\n", corpus.entries().size(), records, bytes);
  if (args.get_or("verify", "false") == "true") {
    for (const auto& e : corpus.entries()) corpus.load(e);  // throws on corruption
    std::printf("integrity: all %zu trace files verified\n", corpus.entries().size());
  }
  return 0;
}

int cmd_synth(const Args& args) {
  tracestore::SynthOptions opt;
  opt.seed = static_cast<std::uint64_t>(args.number("seed", 1));
  opt.cells = static_cast<std::size_t>(args.number("cells", 4));
  opt.hours = static_cast<std::size_t>(args.number("hours", 24));
  opt.ues_per_cell = static_cast<std::size_t>(args.number("ues", 8));
  opt.sessions_per_ue_hour = args.number("sessions", 2.0);
  opt.corpus.trace.compress = args.get_or("compress", "false") == "true";
  opt.corpus.trace.records_per_chunk =
      static_cast<std::size_t>(args.number("records-per-chunk", 4096));
  opt.corpus.entries_per_shard = static_cast<std::size_t>(args.number("shard", 256));
  const std::string dir = args.get_or("out", "synth_corpus");
  const bool live = args.get_or("live", "false") == "true";

  std::fprintf(stderr, "synthesising city-day corpus (%s): %zu cells x %zu h x %zu UEs -> %s...\n",
               live ? "live engine" : "procedural", opt.cells, opt.hours, opt.ues_per_cell,
               dir.c_str());
  const tracestore::SynthSummary s =
      live ? attacks::synth_city_day_live(dir, opt) : tracestore::synth_city_day(dir, opt);
  std::printf("synth: %zu files, %zu records, %zu bytes (%s, v%u%s)\n", s.files, s.records,
              s.bytes, dir.c_str(), tracestore::kFormatVersionV2,
              opt.corpus.trace.compress ? ", compressed" : "");
  return 0;
}

int cmd_scan(const Args& args) {
  const std::string dir = args.get_or("corpus", "corpus");
  tracestore::RangeQuery query;
  if (args.get("t0")) query.t0 = static_cast<TimeMs>(args.number("t0", 0));
  if (args.get("t1")) query.t1 = static_cast<TimeMs>(args.number("t1", 0));
  if (args.get("rnti")) query.rnti = static_cast<lte::Rnti>(args.number("rnti", 0));
  if (args.get("app")) query.filter.app = static_cast<std::uint16_t>(args.number("app", 0));
  if (args.get("cell")) query.filter.cell = static_cast<lte::CellId>(args.number("cell", 0));

  const tracestore::Corpus corpus = tracestore::Corpus::open(dir);
  tracestore::RangeScanStats stats;
  const auto slices = corpus.range_scan(query, &stats);

  if (const auto out_path = args.get("out")) {
    std::ofstream out(*out_path);
    if (!out) throw std::runtime_error("cannot write " + *out_path);
    sniffer::Trace merged;
    for (const auto& s : slices) {
      merged.insert(merged.end(), s.trace.begin(), s.trace.end());
    }
    sniffer::write_csv(out, merged);
    std::fprintf(stderr, "wrote %zu records to %s\n", merged.size(), out_path->c_str());
  }

  std::printf("scan: %zu records from %zu entries\n", stats.records_out, slices.size());
  std::printf("  shards: %zu pruned of %zu; entries: %zu pruned of %zu; files opened: %zu\n",
              stats.shards_pruned, stats.shards_total, stats.entries_pruned,
              stats.entries_considered, stats.files_opened);
  std::printf("  chunks: %zu decoded, %zu pruned by directory\n", stats.chunks_decoded,
              stats.chunks_skipped);

  if (args.get_or("verify", "false") == "true") {
    // Oracle check: the pruned scan must equal a brute-force full decode
    // with the same predicate applied per record.
    std::size_t mismatched = 0;
    const auto full = corpus.load_all(query.filter);
    std::size_t si = 0;
    for (const auto& loaded : full) {
      sniffer::Trace expect;
      for (const auto& r : loaded.trace) {
        if (r.time >= query.t0 && r.time <= query.t1 &&
            (!query.rnti || r.rnti == *query.rnti)) {
          expect.push_back(r);
        }
      }
      if (expect.empty()) continue;
      if (si >= slices.size() || slices[si].entry.seq != loaded.entry.seq ||
          slices[si].trace != expect) {
        ++mismatched;
      }
      ++si;
    }
    if (mismatched > 0 || si != slices.size()) {
      throw std::runtime_error("scan verify FAILED: pruned scan disagrees with full decode");
    }
    std::printf("  verify: scan matches brute-force decode (%zu entries)\n", si);
  }
  return 0;
}

int cmd_train(const Args& args) {
  attacks::PipelineConfig config;
  config.op = parse_operator(args.get_or("operator", "Lab"));
  config.traces_per_app = static_cast<int>(args.number("traces", 2));
  config.trace_duration = minutes(args.number("minutes", 1.5));
  config.seed = static_cast<std::uint64_t>(args.number("seed", 42));

  std::fprintf(stderr, "building dataset (%d traces/app x %d apps on %s)...\n",
               config.traces_per_app, apps::kNumApps, lte::to_string(config.op));
  const features::Dataset data = attacks::build_dataset(config);
  std::fprintf(stderr, "training flat RF on %zu windows...\n", data.size());
  // The CLI persists a flat 9-way forest (the hierarchical wrapper is an
  // in-process optimisation; the flat model serialises to one file).
  ml::RandomForest forest;
  forest.fit(data);

  const std::string out_path = args.get_or("out", "model.rf");
  std::ofstream out(out_path);
  if (!out) throw std::runtime_error("cannot write " + out_path);
  ml::save_forest(out, forest);
  std::fprintf(stderr, "saved model to %s\n", out_path.c_str());
  return 0;
}

int cmd_classify(const Args& args) {
  const ml::RandomForest forest = load_model(args);

  const std::string trace_path = args.get_or("trace", "trace.csv");
  std::ifstream trace_in(trace_path);
  if (!trace_in) throw std::runtime_error("cannot read " + trace_path);
  std::stringstream buffer;
  buffer << trace_in.rdbuf();
  const sniffer::Trace trace = sniffer::read_csv(buffer.str());
  if (trace.empty()) throw std::runtime_error("trace is empty");

  features::WindowConfig window;
  window.window_ms = static_cast<TimeMs>(args.number("window-ms", 100));
  const attacks::TraceVerdict verdict =
      attacks::classify_trace(forest, trace, trace.front().time, window);
  std::printf("%s (%s), %zu/%zu window votes\n", apps::to_string(verdict.app),
              apps::to_string(verdict.category), verdict.votes, verdict.window_count);
  return 0;
}

int cmd_history(const Args& args) {
  attacks::PipelineConfig pipe_config;
  pipe_config.op = parse_operator(args.get_or("operator", "T-Mobile"));
  pipe_config.traces_per_app = 2;
  pipe_config.trace_duration = minutes(args.number("train-minutes", 1.5));
  pipe_config.seed = static_cast<std::uint64_t>(args.number("seed", 7));
  std::fprintf(stderr, "training pipeline on %s...\n", lte::to_string(pipe_config.op));
  attacks::FingerprintPipeline pipeline(pipe_config);
  pipeline.train(attacks::build_dataset(pipe_config));

  attacks::HistoryConfig config;
  config.op = pipe_config.op;
  config.seed = pipe_config.seed + 1;
  config.itinerary = attacks::HistoryAttack::default_itinerary(config.seed);
  const TimeMs visit = minutes(args.number("visit-minutes", 1.5));
  for (auto& v : config.itinerary) v.duration = visit;

  const attacks::HistoryResult result = attacks::HistoryAttack(pipeline).run(config);
  TextTable table({"Zone", "Start", "Category", "Prediction", "Truth", "Hit"});
  for (const auto& obs : result.observations) {
    table.add_row({std::string(1, static_cast<char>('A' + obs.zone)), format_hms(obs.start),
                   apps::to_string(obs.predicted_category), apps::to_string(obs.predicted_app),
                   apps::to_string(obs.true_app), obs.correct ? "TRUE" : "FALSE"});
  }
  std::printf("%s", table.render("History attack").c_str());
  std::printf("success rate: %s\n", fmt_pct(result.success_rate).c_str());
  return 0;
}

int cmd_correlate(const Args& args) {
  attacks::CorrelationConfig config;
  config.op = parse_operator(args.get_or("operator", "Lab"));
  config.duration = minutes(args.number("minutes", 1.5));
  config.seed = static_cast<std::uint64_t>(args.number("seed", 11));
  const apps::AppId app = parse_app(args.get_or("app", "WhatsApp"));
  const bool paired = args.get_or("paired", "true") == "true";

  const attacks::PairObservation obs = attacks::run_pair_session(app, paired, config);
  std::printf("app=%s world=%s similarity=%.3f features=[%.3f %.3f %.3f %.3f]\n",
              apps::to_string(app), paired ? "in-contact" : "independent", obs.similarity,
              obs.features[0], obs.features[1], obs.features[2], obs.features[3]);
  return 0;
}

int cmd_info(const Args&) {
  TextTable apps_table({"App", "Category"});
  for (const apps::AppId app : apps::kAllApps) {
    apps_table.add_row({apps::to_string(app), apps::to_string(apps::category_of(app))});
  }
  std::printf("%s", apps_table.render("App catalogue").c_str());

  TextTable op_table({"Operator", "PRBs", "Scheduler", "Load (UEs)", "Miss rate", "BLER"});
  for (const lte::Operator op : {lte::Operator::kLab, lte::Operator::kVerizon,
                                 lte::Operator::kAtt, lte::Operator::kTmobile}) {
    const lte::OperatorProfile p = lte::operator_profile(op);
    op_table.add_row({lte::to_string(op), std::to_string(lte::prb_count(p.bandwidth)),
                      p.scheduler == lte::SchedulerKind::kProportionalFair ? "PF" : "RR",
                      std::to_string(p.background_ues), fmt(p.sniffer_miss_rate),
                      fmt(p.harq_bler)});
  }
  std::printf("%s", op_table.render("Operator profiles").c_str());
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: ltefp "
               "<collect|record|replay|stream|inspect|synth|scan|train|classify|history|"
               "correlate|info> [--threads N] [--flag value]...\n"
               "  --threads N  worker threads for collection/training/replay/stream\n"
               "               (default: LTEFP_THREADS env var, else hardware; results\n"
               "               are bit-identical at any thread count)\n"
               "  collect   --app A --operator O --minutes M --seed S --out F\n"
               "  record    --operator O --traces N --minutes M --seed S --day D --out DIR\n"
               "  replay    --corpus DIR [--seed S] [--speed N  (load generator)]\n"
               "  stream    --corpus DIR --model F [--speed N] [--batch-ms B] [--out F]\n"
               "            [--latency-report true] [--window-verdicts false]\n"
               "  inspect   --corpus DIR [--verify true] | --trace F.ltt\n"
               "  synth     --out DIR [--seed S] [--cells C] [--hours H] [--ues U]\n"
               "            [--sessions MEAN] [--compress true]\n"
               "            [--shard N] [--records-per-chunk N]\n"
               "            [--live true  (run the city through the event engine)]\n"
               "  scan      --corpus DIR [--t0 MS] [--t1 MS] [--rnti R] [--app CODE]\n"
               "            [--cell C] [--out F.csv] [--verify true]\n"
               "  train     --operator O --traces N --minutes M --seed S --out F\n"
               "  classify  --model F --trace F [--window-ms W]\n"
               "  history   --operator O [--train-minutes M] [--visit-minutes M] [--seed S]\n"
               "  correlate --app A --operator O --paired true|false [--minutes M] [--seed S]\n"
               "  info\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  try {
    const Args args(argc, argv, 2);
    if (const auto threads = args.get("threads")) {
      int n = 0;
      const char* end = threads->data() + threads->size();
      const auto [ptr, ec] = std::from_chars(threads->data(), end, n);
      if (ec != std::errc{} || ptr != end) {
        throw std::runtime_error("--threads: expected an integer, got '" + *threads + "'");
      }
      set_thread_count(n);
    }
    struct Command {
      const char* name;
      int (*run)(const Args&);
      std::initializer_list<std::string_view> flags;
    };
    const Command commands[] = {
        {"collect", cmd_collect, {"app", "operator", "minutes", "seed", "out"}},
        {"record", cmd_record, {"operator", "traces", "minutes", "seed", "day", "out"}},
        {"replay", cmd_replay, {"corpus", "seed", "speed"}},
        {"stream", cmd_stream,
         {"corpus", "model", "window-ms", "batch-ms", "workers", "window-verdicts", "speed",
          "out", "latency-report"}},
        {"inspect", cmd_inspect, {"corpus", "verify", "trace"}},
        {"synth", cmd_synth,
         {"out", "seed", "cells", "hours", "ues", "sessions", "compress", "shard",
          "records-per-chunk", "live"}},
        {"scan", cmd_scan, {"corpus", "t0", "t1", "rnti", "app", "cell", "out", "verify"}},
        {"train", cmd_train, {"operator", "traces", "minutes", "seed", "out"}},
        {"classify", cmd_classify, {"model", "trace", "window-ms"}},
        {"history", cmd_history, {"operator", "train-minutes", "visit-minutes", "seed"}},
        {"correlate", cmd_correlate, {"app", "operator", "paired", "minutes", "seed"}},
        {"info", cmd_info, {}},
    };
    for (const Command& c : commands) {
      if (command != c.name) continue;
      args.reject_unknown(command, c.flags);
      return c.run(args);
    }
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ltefp %s: %s\n", command.c_str(), e.what());
    return 1;
  }
}
