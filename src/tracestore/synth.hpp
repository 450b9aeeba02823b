// Deterministic "city-day" corpus generator.
//
// Synthesises a day of DCI traffic for a whole deployment — `cells` cells,
// each observed for `hours` hour-long capture windows holding
// `ues_per_cell` UEs with diurnally-modulated session activity — and
// spills it through CorpusWriter as one .ltt file per (cell, hour). The
// point is SCALE with reproducibility: a multi-gigabyte corpus whose every
// byte is a pure function of (seed, cell, hour, ue), so benchmarks and
// range-scan tests can regenerate identical inputs anywhere, at any
// thread count, without shipping data files.
//
// Each UE keeps a stable per-cell C-RNTI across the whole day, which is
// what makes RNTI-targeted range scans meaningful: querying one RNTI over
// a narrow window models the paper's targeted-victim lookup against a
// city-scale capture.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "tracestore/corpus.hpp"

namespace ltefp::tracestore {

struct SynthOptions {
  std::uint64_t seed = 1;
  std::size_t cells = 4;
  std::size_t hours = 24;           // capture windows starting at hour 0
  std::size_t ues_per_cell = 8;
  double sessions_per_ue_hour = 2.0;  // mean, scaled by the diurnal curve
  /// Options for the corpus written (compression, chunking, manifest
  /// sharding).
  CorpusOptions corpus;
};

struct SynthSummary {
  std::size_t files = 0;
  std::size_t records = 0;
  std::size_t bytes = 0;
};

/// Generates the corpus into `directory` (created if absent; an existing
/// manifest there is overwritten). Deterministic: the same options yield
/// byte-identical trace files and manifests.
SynthSummary synth_city_day(const std::string& directory, const SynthOptions& options);

/// The stable C-RNTI `synth_city_day(seed, ...)` assigns to `ue` in `cell`
/// for the whole day. Exposed so targeted-scan benchmarks and tests can
/// query a victim that actually exists in the synthesised corpus.
lte::Rnti synth_rnti(std::uint64_t seed, std::size_t cell, std::size_t ue);

}  // namespace ltefp::tracestore
