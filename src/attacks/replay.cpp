#include "attacks/replay.hpp"

#include <sstream>
#include <unordered_set>

namespace ltefp::attacks {
namespace {

/// Serialises one collected session into `corpus` with its capture
/// metadata.
void spill_to_corpus(tracestore::CorpusWriter& corpus, const CollectedTrace& collected,
                     lte::Operator op, std::uint64_t seed, int day) {
  tracestore::TraceMeta meta;
  meta.op = op;
  meta.app = static_cast<std::uint16_t>(collected.app);
  meta.label = apps::to_string(collected.app);
  meta.day = day;
  meta.seed = seed;
  meta.cell = collected.trace.empty() ? 0 : collected.trace.front().cell;
  meta.session_start = collected.session_start;
  corpus.add(meta, collected.trace);
}

}  // namespace

RecordResult record_corpus(const PipelineConfig& config, const std::string& dir) {
  const std::vector<CollectedTrace> traces = collect_all_traces(config);
  tracestore::CorpusWriter corpus(dir);
  RecordResult result;
  for (const auto& t : traces) {
    spill_to_corpus(corpus, t, config.op, config.seed, config.day);
    result.records += t.trace.size();
    std::ostringstream csv;
    sniffer::write_csv(csv, t.trace);
    result.csv_bytes += csv.str().size();
  }
  corpus.finish();
  result.traces = corpus.entries().size();
  result.corpus_bytes = corpus.total_bytes();
  return result;
}

std::vector<CollectedTrace> load_corpus(const std::string& dir, std::optional<apps::AppId> app) {
  const tracestore::Corpus corpus = tracestore::Corpus::open(dir);
  tracestore::CorpusFilter filter;
  if (app) filter.app = static_cast<std::uint16_t>(*app);
  // load_all() skips shards whose app mask cannot match before parsing
  // them, and decodes the selected .ltt files concurrently, in seq order.
  std::vector<CollectedTrace> out;
  for (auto& loaded : corpus.load_all(filter)) {
    if (loaded.entry.meta.app >= static_cast<std::uint16_t>(apps::kNumApps)) {
      throw tracestore::TraceStoreError("corpus: " + loaded.entry.file + ": app code " +
                                        std::to_string(loaded.entry.meta.app) +
                                        " is not a known AppId");
    }
    CollectedTrace t;
    t.app = static_cast<apps::AppId>(loaded.entry.meta.app);
    t.session_start = loaded.entry.meta.session_start;
    t.trace = std::move(loaded.trace);
    std::unordered_set<lte::Rnti> rntis;
    for (const auto& r : t.trace) rntis.insert(r.rnti);
    t.rnti_count = rntis.size();
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace ltefp::attacks
