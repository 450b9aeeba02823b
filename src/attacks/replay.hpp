// Capture-once/replay-many bridge between trace collection and the
// tracestore corpus.
//
// record_corpus() runs exactly the collection loop build_dataset() would
// run (same operators, seeds, day jitter) and spills every session to a
// binary corpus; a PipelineConfig whose `replay_corpus` names that
// directory then rebuilds the identical dataset — record-for-record and
// therefore metric-for-metric — without re-running the radio simulation.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "attacks/pipeline.hpp"
#include "tracestore/corpus.hpp"

namespace ltefp::attacks {

struct RecordResult {
  std::size_t traces = 0;
  std::size_t records = 0;
  std::size_t corpus_bytes = 0;   // total encoded .ltt bytes
  std::size_t csv_bytes = 0;      // what the same traces cost as CSV
};

/// Collects the full training set for `config` and writes it to `dir`
/// (created if needed, overwritten if an older corpus is present).
RecordResult record_corpus(const PipelineConfig& config, const std::string& dir);

/// Loads collected sessions back from a corpus, in capture (seq) order,
/// optionally restricted to one app. rnti_count is recomputed from the
/// trace; sniffer decode/miss counters are not persisted and read as 0.
std::vector<CollectedTrace> load_corpus(const std::string& dir,
                                        std::optional<apps::AppId> app = std::nullopt);

}  // namespace ltefp::attacks
