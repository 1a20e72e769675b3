// Structural comparison of two schema-v1 run reports (obs/report.h).
//
// Turns the committed BENCH_*.json trajectory into an enforced regression
// signal: `phonolid report-diff baseline.json current.json --gate SPEC ...`
// prints a delta table over every compared leaf, and the caller exits
// nonzero when a gate is violated.
//
// Leaves.  Both reports are flattened by one walker into `path -> value`
// maps: object members join with '/', array elements by index, except that
// an array element carrying a string "path" or "name" is keyed by it (span
// paths, profile function names), so comparisons survive reordering.  The
// compared leaves are:
//   spans/<path>/mean_s                    metrics/counters/<name>
//   results/...                            quality/... (not det, histogram,
//   resource/...  energy/...  hw/...         confusion: they change shape
//   serve/...                                freely)
//   profile/hz  profile/symbolized_share   profile/functions/<name>/
//   profile/spans/<path>/share               {self,total}_share
// A row's kind is its key's first segment.  Keys present on one side only,
// and top-level sections this tool does not know (written by newer
// binaries), are notes, never violations.  Nonzero flight-recorder or
// profiler drop counts are warning notes: a truncated trace or profile must
// not pass a gate silently.  A schema_version mismatch is a violation.
//
// Gates.  `PATTERN:CHECK[,CHECK...]`.  PATTERN is an fnmatch(3) glob with
// no flags, so '*' also crosses '/'.  A CHECK is a measure, `<=` or `>=`,
// and a number; the measures are
//   delta  current - baseline
//   rel    (current - baseline) / baseline, a fraction (0.2 = +20%)
//   base   the baseline value
// A leaf passes a gate when any of its checks holds, and it must pass every
// gate that matches it.  A gate with a `rel` check does not apply to a leaf
// whose baseline is <= 0.  Gates on energy/ leaves apply only when both
// reports name the same energy.source (RAPL and software-model joules are
// not comparable).  Examples:
//   '*/eer:delta<=0.02'                       EER up at most 2 points
//   '*/adoption*/precision:delta>=-0.05'      precision drop at most 0.05
//   'serve/throughput_rps:rel>=-0.9'          throughput drop at most 90%
//   'serve/phases/*/p99*:rel<=4,delta<=1'     +400%, unless under 1 ms
//   'spans/*/mean_s:rel<=0.2,base<=0.01'      +20%, spans under 10 ms exempt
// Without gates, report-diff is a pure inspection tool that always passes.
#pragma once

#include <string>
#include <vector>

#include "obs/json.h"

namespace phonolid::obs {

struct GateCheck {
  enum class Measure { kDelta, kRel, kBase };
  Measure measure = Measure::kDelta;
  bool at_most = true;  // `<=`; false = `>=`
  double limit = 0.0;
};

struct Gate {
  std::string spec;     // as written, for messages
  std::string pattern;  // fnmatch(3) glob over leaf keys
  std::vector<GateCheck> checks;
};

/// Parse `PATTERN:CHECK[,CHECK...]` (the pattern ends at the last ':', so
/// C++ function names in profile keys may contain "::").  Throws
/// std::invalid_argument naming `spec` when it is malformed.
[[nodiscard]] Gate parse_gate(const std::string& spec);

struct ReportDiffRow {
  std::string kind;  // first key segment: "spans", "results", "serve", ...
  std::string key;   // full leaf path, e.g. "results/dba/30s/eer"
  double base = 0.0;
  double cur = 0.0;
  bool gated = false;      // some gate applied to this row
  bool violation = false;  // ... and one of them failed
  std::string gate;        // spec of the failed (else first applied) gate
};

struct ReportDiffResult {
  std::vector<ReportDiffRow> rows;
  std::vector<std::string> notes;  // added/removed keys, schema issues
  bool violated = false;

  /// Human-readable delta table (rows that changed, notes, verdict line).
  [[nodiscard]] std::string format() const;
};

/// Compare two parsed schema-v1 reports under `gates`.  Never throws on
/// missing sections — absent pieces become notes.
[[nodiscard]] ReportDiffResult diff_reports(
    const Json& baseline, const Json& current,
    const std::vector<Gate>& gates = {});

}  // namespace phonolid::obs
