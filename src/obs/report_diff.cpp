#include "obs/report_diff.h"

#include <fnmatch.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

namespace phonolid::obs {

namespace {

using Leaves = std::map<std::string, double>;

bool glob_match(const char* pattern, const std::string& key) {
  return fnmatch(pattern, key.c_str(), 0) == 0;
}

/// The leaves report-diff compares.  Everything else a report carries
/// (meta, experiment, dba, cache, streaming, gauges, histograms, raw
/// profiler sample counts, per-thread span splits) is context.
constexpr const char* kCompared[] = {
    "spans/*/mean_s", "metrics/counters/*",
    "results/*",      "quality/*",
    "resource/*",     "energy/*",
    "hw/*",           "serve/*",
    "profile/hz",     "profile/symbolized_share",
    "profile/functions/*_share", "profile/spans/*/share"};
/// Bulky quality subtrees that change shape freely; gating happens on the
/// derived scalars instead.
constexpr const char* kNotCompared[] = {"quality/det/*", "quality/histogram/*",
                                        "quality/confusion/*"};

bool compared(const std::string& key) {
  const auto match = [&](const char* p) { return glob_match(p, key); };
  return std::any_of(std::begin(kCompared), std::end(kCompared), match) &&
         std::none_of(std::begin(kNotCompared), std::end(kNotCompared), match);
}

/// An array element that names itself ("path" of a span, "name" of a
/// profiled function) is keyed by that name, so keys survive reordering.
std::string element_key(const Json& element, std::size_t index) {
  if (element.is_object()) {
    for (const char* field : {"path", "name"}) {
      const Json* id = element.find(field);
      if (id != nullptr && id->is_string()) return id->as_string();
    }
  }
  return std::to_string(index);
}

/// The one walker: every numeric leaf under `node`, keyed by its path.
void flatten(const Json& node, const std::string& prefix, Leaves& out) {
  if (node.is_object()) {
    for (const auto& [key, value] : node.as_object()) {
      flatten(value, prefix + "/" + key, out);
    }
  } else if (node.is_array()) {
    const auto& arr = node.as_array();
    for (std::size_t i = 0; i < arr.size(); ++i) {
      flatten(arr[i], prefix + "/" + element_key(arr[i], i), out);
    }
  } else if (node.is_number()) {
    out[prefix] = node.as_double();
  }
}

Leaves all_leaves(const Json& report) {
  Leaves out;
  if (!report.is_object()) return out;
  for (const auto& [section, value] : report.as_object()) {
    flatten(value, section, out);
  }
  return out;
}

Leaves compared_leaves(const Leaves& all) {
  Leaves out;
  for (const auto& [key, value] : all) {
    if (compared(key)) out.emplace(key, value);
  }
  return out;
}

const char* energy_source(const Json& report) {
  const Json* energy = report.find("energy");
  const Json* source = energy == nullptr ? nullptr : energy->find("source");
  return source != nullptr && source->is_string() ? source->as_string().c_str()
                                                  : nullptr;
}

/// Nonzero ring-drop counts mean the trace/profile under comparison is
/// incomplete; say so loudly instead of letting a truncated run pass a gate.
void note_drops(const Leaves& all, const char* side, ReportDiffResult& result) {
  const auto count = [&](const char* key) {
    const auto it = all.find(key);
    return it == all.end() ? 0LL : static_cast<long long>(it->second);
  };
  if (const long long n = count("resource/flight_recorder/dropped_events");
      n > 0) {
    result.notes.push_back(
        "WARNING: " + std::string(side) + " dropped " + std::to_string(n) +
        " flight-recorder events — its trace is truncated");
  }
  if (const long long n = count("profile/dropped"); n > 0) {
    result.notes.push_back("WARNING: " + std::string(side) + " dropped " +
                           std::to_string(n) +
                           " profiler samples — its profile is incomplete");
  }
}

/// Forward compatibility: a newer binary may emit top-level sections this
/// tool has never heard of.  They must surface as notes and be skipped, not
/// rejected — otherwise every schema extension would break every committed
/// baseline at once.
void note_unknown_sections(const Json& report, const char* side,
                           ReportDiffResult& result) {
  static const std::set<std::string> kKnownSections = {
      "schema_version", "generated_at", "meta",      "metrics",
      "spans",          "resource",     "energy",    "hw",
      "profile",        "results",      "quality",   "streaming",
      "serve",          "experiment",   "dba",       "cache"};
  if (!report.is_object()) return;
  for (const auto& [key, value] : report.as_object()) {
    (void)value;
    if (kKnownSections.find(key) == kKnownSections.end()) {
      result.notes.push_back("unknown section \"" + key + "\" in " + side +
                             " — skipped (not compared, not gated)");
    }
  }
}

bool holds(const GateCheck& check, double base, double cur) {
  double value = base;
  if (check.measure == GateCheck::Measure::kDelta) value = cur - base;
  if (check.measure == GateCheck::Measure::kRel) value = (cur - base) / base;
  return check.at_most ? value <= check.limit : value >= check.limit;
}

void apply_gates(const std::vector<Gate>& gates, bool energy_gated,
                 ReportDiffRow& row) {
  for (const Gate& gate : gates) {
    if (!glob_match(gate.pattern.c_str(), row.key)) continue;
    if (row.kind == "energy" && !energy_gated) continue;
    const auto is_rel = [](const GateCheck& c) {
      return c.measure == GateCheck::Measure::kRel;
    };
    if (row.base <= 0.0 &&
        std::any_of(gate.checks.begin(), gate.checks.end(), is_rel)) {
      continue;
    }
    const bool pass = std::any_of(
        gate.checks.begin(), gate.checks.end(),
        [&](const GateCheck& c) { return holds(c, row.base, row.cur); });
    if (!row.gated || (!pass && !row.violation)) row.gate = gate.spec;
    row.gated = true;
    row.violation = row.violation || !pass;
  }
}

}  // namespace

Gate parse_gate(const std::string& spec) {
  const auto fail = [&](const std::string& why) {
    throw std::invalid_argument("bad gate '" + spec + "': " + why +
                                " (expected PATTERN:CHECK[,CHECK...], a "
                                "CHECK like delta<=0.02, rel>=-0.9, base<=1)");
  };
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos) fail("no ':'");
  Gate gate;
  gate.spec = spec;
  gate.pattern = spec.substr(0, colon);
  if (gate.pattern.empty()) fail("empty pattern");
  // getline drops a trailing empty field, so catch "...," here.
  if (spec.back() == ',') fail("empty check");
  std::istringstream checks(spec.substr(colon + 1));
  std::string text;
  while (std::getline(checks, text, ',')) {
    std::size_t i = 0;
    while (i < text.size() &&
           std::isalpha(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    const std::string measure = text.substr(0, i);
    GateCheck check;
    if (measure == "delta") {
      check.measure = GateCheck::Measure::kDelta;
    } else if (measure == "rel") {
      check.measure = GateCheck::Measure::kRel;
    } else if (measure == "base") {
      check.measure = GateCheck::Measure::kBase;
    } else {
      fail("unknown measure '" + measure + "' (delta, rel or base)");
    }
    const std::string op = text.substr(i, 2);
    if (op != "<=" && op != ">=") fail("expected <= or >= in '" + text + "'");
    check.at_most = op == "<=";
    const std::string limit = text.substr(i + 2);
    char* end = nullptr;
    check.limit = std::strtod(limit.c_str(), &end);
    if (limit.empty() || std::isspace(static_cast<unsigned char>(limit[0])) ||
        end != limit.c_str() + limit.size() || !std::isfinite(check.limit)) {
      fail("limit '" + limit + "' is not a number");
    }
    gate.checks.push_back(check);
  }
  if (gate.checks.empty()) fail("empty check");
  return gate;
}

ReportDiffResult diff_reports(const Json& baseline, const Json& current,
                              const std::vector<Gate>& gates) {
  ReportDiffResult result;

  const Json* bs = baseline.find("schema_version");
  const Json* cs = current.find("schema_version");
  const std::int64_t bv = bs != nullptr && bs->is_int() ? bs->as_int() : -1;
  const std::int64_t cv = cs != nullptr && cs->is_int() ? cs->as_int() : -1;
  if (bv != cv || bv < 0) {
    result.notes.push_back("schema_version mismatch (baseline " +
                           std::to_string(bv) + ", current " +
                           std::to_string(cv) + ")");
    result.violated = true;
  }

  const char* base_source = energy_source(baseline);
  const char* cur_source = energy_source(current);
  const bool sources_match = base_source != nullptr && cur_source != nullptr &&
                             std::string(base_source) == cur_source;
  if (base_source != nullptr && cur_source != nullptr && !sources_match) {
    result.notes.push_back(std::string("energy source differs (baseline ") +
                           base_source + ", current " + cur_source +
                           ") — joule leaves not gated");
  }

  const Leaves base_all = all_leaves(baseline);
  const Leaves cur_all = all_leaves(current);
  const Leaves base = compared_leaves(base_all);
  const Leaves cur = compared_leaves(cur_all);
  for (const auto& [key, b] : base) {
    const auto it = cur.find(key);
    if (it == cur.end()) {
      result.notes.push_back("only in baseline: " + key);
      continue;
    }
    ReportDiffRow row;
    row.kind = key.substr(0, key.find('/'));
    row.key = key;
    row.base = b;
    row.cur = it->second;
    apply_gates(gates, sources_match, row);
    result.violated = result.violated || row.violation;
    result.rows.push_back(std::move(row));
  }
  for (const auto& [key, c] : cur) {
    (void)c;
    if (base.find(key) == base.end()) {
      result.notes.push_back("only in current: " + key);
    }
  }

  note_unknown_sections(baseline, "baseline", result);
  note_unknown_sections(current, "current", result);
  note_drops(base_all, "baseline", result);
  note_drops(cur_all, "current", result);
  return result;
}

std::string ReportDiffResult::format() const {
  std::ostringstream out;
  char line[128];
  std::snprintf(line, sizeof(line), "%-8s %-48s %14s %14s %12s\n", "kind",
                "key", "baseline", "current", "delta");
  out << line;
  std::size_t hidden = 0;
  for (const ReportDiffRow& row : rows) {
    // Unchanged ungated rows are the bulk of a same-machine diff.
    if (row.base == row.cur && !row.gated) {
      ++hidden;
      continue;
    }
    const double delta = row.cur - row.base;
    char delta_text[48];
    if (row.kind == "spans" && row.base > 0.0) {
      std::snprintf(delta_text, sizeof(delta_text), "%+.1f%%",
                    100.0 * delta / row.base);
    } else {
      std::snprintf(delta_text, sizeof(delta_text), "%+.6g", delta);
    }
    // Keys (demangled C++ names in profile rows) can be any length, so
    // only the numbers go through the fixed buffer.
    std::snprintf(line, sizeof(line), " %14.6g %14.6g %12s", row.base,
                  row.cur, delta_text);
    out << std::left << std::setw(8) << row.kind << ' ' << std::setw(48)
        << row.key << line << (row.gated ? "  [gated]" : "")
        << (row.violation ? "  VIOLATION" : "") << '\n';
  }
  if (hidden > 0) out << "(" << hidden << " unchanged rows elided)\n";
  for (const std::string& note : notes) {
    out << "note: " << note << '\n';
  }
  // One line per violation with everything needed to act on it — the table
  // above can be long, but these lines alone identify the failures.
  std::size_t violations = 0;
  for (const ReportDiffRow& row : rows) {
    if (!row.violation) continue;
    ++violations;
    std::snprintf(line, sizeof(line), ": baseline %.6g, current %.6g",
                  row.base, row.cur);
    out << "violation: " << row.key << line << ", gate '" << row.gate
        << "'\n";
  }
  if (violated) {
    out << "report-diff: FAIL (" << violations
        << (violations == 1 ? " violation" : " violations");
    if (violations == 0) out << "; schema mismatch";  // only non-row failure
    out << ")\n";
  } else {
    out << "report-diff: OK\n";
  }
  return out.str();
}

}  // namespace phonolid::obs
