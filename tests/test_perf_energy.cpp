// Tests for the energy accounting and hardware-counter layer
// (src/obs/energy.h, src/obs/perf.h): software-model determinism across
// thread counts, span attribution, graceful perf fallback, and the
// report-diff energy gate.
#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "la/kernels.h"
#include "obs/energy.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/perf.h"
#include "obs/report.h"
#include "obs/report_diff.h"
#include "obs/trace.h"
#include "util/matrix.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace phonolid {
namespace {

util::Matrix random_matrix(std::size_t rows, std::size_t cols,
                           std::uint64_t seed) {
  util::Matrix m(rows, cols);
  util::Rng rng(seed);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m(r, c) = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
  }
  return m;
}

/// Total software joules charged by a fixed gemm workload run on `threads`
/// pool workers.
double software_joules_for_workload(std::size_t threads) {
  obs::Energy::force_source_for_test(obs::EnergySource::kSoftware);
  util::ThreadPool pool(threads);
  const util::Matrix a = random_matrix(96, 64, 1);
  const util::Matrix b = random_matrix(64, 80, 2);
  util::Matrix c;
  for (int i = 0; i < 5; ++i) la::gemm(a, b, c, &pool);
  return obs::Energy::total_joules();
}

// --- Software cost model --------------------------------------------------

TEST(Energy, OffSourceChargesNothing) {
  obs::Energy::force_source_for_test(obs::EnergySource::kOff);
  obs::Energy::charge_flops(1e9);
  EXPECT_EQ(obs::Energy::total_joules(), 0.0);
  EXPECT_EQ(obs::Energy::total_gflops(), 0.0);
}

TEST(Energy, SoftwareChargesAtConfiguredRate) {
  obs::Energy::force_source_for_test(obs::EnergySource::kSoftware);
  obs::Energy::charge_flops(2e9);  // 2 GFLOP
  EXPECT_NEAR(obs::Energy::total_gflops(), 2.0, 1e-12);
  EXPECT_NEAR(obs::Energy::total_joules(),
              2.0 * obs::Energy::joules_per_gflop(), 1e-9);
}

TEST(Energy, SoftwareModelIsDeterministicAcrossThreadCounts) {
  // The charge depends only on problem sizes, never on how the kernel was
  // scheduled — the portability contract behind the CI energy gate.
  const double j1 = software_joules_for_workload(1);
  const double j4 = software_joules_for_workload(4);
  const double j8 = software_joules_for_workload(8);
  EXPECT_GT(j1, 0.0);
  EXPECT_DOUBLE_EQ(j1, j4);
  EXPECT_DOUBLE_EQ(j1, j8);
}

TEST(Energy, ChargesAttributeToCurrentSpanPath) {
  obs::Energy::force_source_for_test(obs::EnergySource::kSoftware);
  obs::Trace::reset();
  {
    PHONOLID_SPAN("outer");
    obs::Energy::charge_flops(1e9);
    {
      PHONOLID_SPAN("inner");
      obs::Energy::charge_flops(3e9);
    }
  }
  const std::map<std::string, double> by_span = obs::Energy::joules_by_span();
  const double rate = obs::Energy::joules_per_gflop();
  ASSERT_TRUE(by_span.count("outer"));
  ASSERT_TRUE(by_span.count("outer/inner"));
  EXPECT_NEAR(by_span.at("outer"), 1.0 * rate, 1e-9);
  EXPECT_NEAR(by_span.at("outer/inner"), 3.0 * rate, 1e-9);
}

TEST(Energy, ChargesOutsideAnySpanLandInUnattributedBucket) {
  obs::Energy::force_source_for_test(obs::EnergySource::kSoftware);
  obs::Energy::charge_flops(1e9);
  const auto by_span = obs::Energy::joules_by_span();
  ASSERT_TRUE(by_span.count("(unattributed)"));
  EXPECT_NEAR(by_span.at("(unattributed)"),
              obs::Energy::joules_per_gflop(), 1e-9);
}

TEST(Energy, ReportSpanJoulesSumToTotalWithinOnePercent) {
  obs::Energy::force_source_for_test(obs::EnergySource::kSoftware);
  obs::Trace::reset();
  util::ThreadPool pool(4);
  const util::Matrix a = random_matrix(128, 96, 3);
  const util::Matrix b = random_matrix(96, 64, 4);
  util::Matrix c;
  {
    PHONOLID_SPAN("stage_a");
    la::gemm(a, b, c, &pool);
  }
  {
    PHONOLID_SPAN("stage_b");
    la::gemm(a, b, c, &pool);
    obs::Energy::charge_flops(5e8);
  }
  obs::ReportMeta meta;
  meta.tool = "test";
  const obs::Json report = obs::build_report(meta);
  const obs::Json* energy = report.find("energy");
  ASSERT_NE(energy, nullptr);
  ASSERT_EQ(energy->find("source")->as_string(), "software");
  const double total = energy->find("total_joules")->as_double();
  ASSERT_GT(total, 0.0);
  double sum = 0.0;
  for (const obs::Json& s : report.find("spans")->as_array()) {
    if (const obs::Json* j = s.find("joules"); j != nullptr) {
      sum += j->as_double();
    }
  }
  EXPECT_NEAR(sum, total, 0.01 * total);
}

TEST(Energy, ResetDropsAccumulatedJoules) {
  obs::Energy::force_source_for_test(obs::EnergySource::kSoftware);
  obs::Energy::charge_flops(1e9);
  ASSERT_GT(obs::Energy::total_joules(), 0.0);
  obs::Energy::reset();
  EXPECT_EQ(obs::Energy::total_joules(), 0.0);
  EXPECT_EQ(obs::Energy::total_gflops(), 0.0);
}

TEST(Energy, EnergyJsonRoundsToMicrojoules) {
  obs::Energy::force_source_for_test(obs::EnergySource::kSoftware);
  obs::Energy::charge_flops(1.23456789e7);  // sub-µJ tail
  const obs::Json energy = obs::Energy::energy_json();
  const double joules = energy.find("total_joules")->as_double();
  EXPECT_DOUBLE_EQ(joules, std::round(joules * 1e6) / 1e6);
}

// --- Perf graceful degradation --------------------------------------------

TEST(Perf, ForcedOpenErrorDegradesGracefully) {
  for (const int err : {EACCES, ENOSYS}) {
    obs::Perf::force_open_error_for_test(err);
    obs::HwCounters counters;
    EXPECT_FALSE(obs::Perf::read_thread(counters));
    EXPECT_FALSE(obs::Perf::available());
    EXPECT_EQ(obs::Perf::unavailable_errno(), err);
    const obs::Json hw = obs::Perf::hw_json();
    EXPECT_FALSE(hw.find("available")->as_bool());
    EXPECT_EQ(hw.find("unavailable_errno")->as_int(), err);
    ASSERT_NE(hw.find("unavailable_reason"), nullptr);
  }
  obs::Perf::force_open_error_for_test(0);  // restore: re-probe next use
}

TEST(Perf, SpansRecordWithoutCountersWhenPerfUnavailable) {
  obs::Perf::force_open_error_for_test(EACCES);
  obs::Trace::reset();
  {
    PHONOLID_SPAN("no_perf_span");
  }
  bool found = false;
  for (const obs::SpanSnapshot& s : obs::Trace::snapshot()) {
    if (s.path == "no_perf_span") {
      found = true;
      EXPECT_FALSE(s.total.hw.any());
    }
  }
  EXPECT_TRUE(found);
  obs::Perf::force_open_error_for_test(0);
}

TEST(Perf, HwCountersDeltaSaturatesInsteadOfWrapping) {
  obs::HwCounters a;
  obs::HwCounters b;
  a.cycles = 100;
  b.cycles = 40;  // "later" read below "earlier" (e.g. after a reset)
  const obs::HwCounters d = b.delta(a);
  EXPECT_EQ(d.cycles, 0u);
}

// --- report-diff energy gate ----------------------------------------------

obs::Json energy_report(double joules, const std::string& source) {
  obs::Json energy = obs::Json::object();
  energy["source"] = obs::Json(source);
  energy["total_joules"] = obs::Json(joules);
  obs::Json doc = obs::Json::object();
  doc["schema_version"] = obs::Json(obs::kReportSchemaVersion);
  doc["energy"] = std::move(energy);
  return doc;
}

TEST(ReportDiffEnergy, WithinThresholdPasses) {
  const std::vector<obs::Gate> options = {
      obs::parse_gate("energy/total_joules:rel<=0.01")};
  const auto result = obs::diff_reports(energy_report(10.0, "software"),
                                        energy_report(10.05, "software"),
                                        options);
  EXPECT_FALSE(result.violated);
}

TEST(ReportDiffEnergy, RegressionBeyondThresholdFails) {
  const std::vector<obs::Gate> options = {
      obs::parse_gate("energy/total_joules:rel<=0.01")};
  const auto result = obs::diff_reports(energy_report(10.0, "software"),
                                        energy_report(10.5, "software"),
                                        options);
  EXPECT_TRUE(result.violated);
  bool found = false;
  for (const obs::ReportDiffRow& row : result.rows) {
    if (row.violation) {
      found = true;
      EXPECT_EQ(row.gate, "energy/total_joules:rel<=0.01");
      EXPECT_EQ(row.key, "energy/total_joules");
    }
  }
  EXPECT_TRUE(found);
  // The formatted output carries the one-line violation summary.
  const std::string text = result.format();
  EXPECT_NE(text.find("violation: energy/total_joules"), std::string::npos);
  EXPECT_NE(text.find("gate 'energy/total_joules:rel<=0.01'"),
            std::string::npos);
  EXPECT_NE(text.find("FAIL (1 violation)"), std::string::npos);
}

TEST(ReportDiffEnergy, ImprovementNeverViolates) {
  const std::vector<obs::Gate> options = {
      obs::parse_gate("energy/total_joules:rel<=0.01")};
  const auto result = obs::diff_reports(energy_report(10.0, "software"),
                                        energy_report(5.0, "software"),
                                        options);
  EXPECT_FALSE(result.violated);
}

TEST(ReportDiffEnergy, MissingSectionInBaselineIsNoteOnly) {
  // Pre-energy reports must stay diffable: the section appearing on one
  // side is a note, never a violation, even with the gate enabled.
  obs::Json old_report = obs::Json::object();
  old_report["schema_version"] = obs::Json(obs::kReportSchemaVersion);
  const std::vector<obs::Gate> options = {
      obs::parse_gate("energy/total_joules:rel<=0.01")};
  const auto result = obs::diff_reports(
      old_report, energy_report(10.0, "software"), options);
  EXPECT_FALSE(result.violated);
  bool noted = false;
  for (const std::string& note : result.notes) {
    if (note.find("energy/total_joules") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted);
}

TEST(ReportDiffEnergy, SourceMismatchDisablesGateWithNote) {
  const std::vector<obs::Gate> options = {
      obs::parse_gate("energy/total_joules:rel<=0.01")};
  const auto result = obs::diff_reports(energy_report(10.0, "rapl"),
                                        energy_report(100.0, "software"),
                                        options);
  EXPECT_FALSE(result.violated);
  bool noted = false;
  for (const std::string& note : result.notes) {
    if (note.find("energy source differs") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted);
}

}  // namespace
}  // namespace phonolid
