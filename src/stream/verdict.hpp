// Verdict stream — the streaming daemon's output product.
//
// Where the batch pipeline ends in a confusion matrix, the daemon emits a
// timestamped per-victim verdict stream: one interim verdict per classified
// window (the vote converging live) and one final verdict per session (the
// majority vote, equal to batch classify_trace on the same records). The
// stream is totally ordered by (time, cell, lane) and byte-identical at any
// worker count — see DESIGN.md "Streaming attack daemon".
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "apps/app_id.hpp"
#include "common/sim_time.hpp"
#include "lte/types.hpp"

namespace ltefp::stream {

/// One classification verdict for a victim stream. A "lane" is the stable
/// victim identity the assembler tracks (under replay: the corpus seq); the
/// RNTI recorded is the session's first binding, kept for operator-side
/// cross-referencing even though the victim's RNTI churns.
struct VerdictRecord {
  TimeMs time = 0;            // sim time the decision became knowable
  lte::CellId cell = 0;
  std::uint32_t lane = 0;     // victim stream id
  lte::Rnti rnti = 0;         // first RNTI of the session
  std::uint32_t session = 0;  // per-lane session index
  apps::AppId app = apps::AppId::kNetflix;
  double confidence = 0.0;    // leading-app votes / windows voted so far
  std::uint32_t windows = 0;  // windows voted so far
  bool final_verdict = false; // session majority vote vs interim window vote

  bool operator==(const VerdictRecord&) const = default;
};

/// Header for the fixed CSV verdict format (no trailing newline).
std::string verdict_csv_header();

/// One verdict as a CSV line matching verdict_csv_header(); fixed-precision
/// confidence, so equal verdict streams render to equal bytes.
std::string to_csv(const VerdictRecord& v);

/// Where verdicts go. emit() is called on the daemon's driver thread, in
/// final merged (time, cell, lane) order.
class VerdictSink {
 public:
  virtual ~VerdictSink() = default;
  virtual void emit(const VerdictRecord& v) = 0;
};

/// Streams the CSV form (header first) to an ostream the caller owns.
class CsvSink final : public VerdictSink {
 public:
  explicit CsvSink(std::ostream& out);
  void emit(const VerdictRecord& v) override;

 private:
  std::ostream& out_;
};

/// Collects verdicts in memory (tests, CLI summaries).
class CollectorSink final : public VerdictSink {
 public:
  void emit(const VerdictRecord& v) override { verdicts_.push_back(v); }
  const std::vector<VerdictRecord>& verdicts() const { return verdicts_; }

 private:
  std::vector<VerdictRecord> verdicts_;
};

}  // namespace ltefp::stream
