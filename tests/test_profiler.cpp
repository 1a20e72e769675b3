// Tests for the sampling CPU profiler (obs/profiler.h): sample capture
// under parallel_for task groups at several pool widths, ring wraparound
// with nonzero drop counters, the forced-timer_create degradation path,
// the folded-stack export format, and the report-diff self-share gate.
//
// Timers fire on *thread CPU time*, so every sampling test burns real CPU
// and loops against a wall-clock deadline instead of asserting on a fixed
// duration — the same code stays robust under ThreadSanitizer, where each
// iteration is several times slower.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/exporters.h"
#include "obs/json.h"
#include "obs/profiler.h"
#include "obs/report_diff.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace {

using namespace phonolid;
using Clock = std::chrono::steady_clock;

std::atomic<double> g_sink{0.0};

/// Burn a visible chunk of CPU; the body is opaque enough that the
/// optimizer cannot elide it, so SIGPROF has something to land on.
void burn_cpu(int iters = 200000) {
  double acc = 0.0;
  for (int i = 0; i < iters; ++i) acc += std::sqrt(static_cast<double>(i) + 1.0);
  g_sink.store(acc, std::memory_order_relaxed);
}

/// Every test leaves the profiler exactly as it found it: no forced
/// errors, default ring capacity, disarmed, and with no retained samples.
class ProfilerTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::Profiler::force_timer_error_for_test(0);
    obs::Profiler::set_ring_capacity_for_test(0);
    obs::Profiler::stop();
    obs::Profiler::reset();
  }
};

/// Start at a high rate (keeps test wall time low) or skip on hosts
/// without per-thread CPU timers (the profiler degrades, so must the test).
bool start_or_skip() {
  if (!obs::Profiler::start(997)) {
    return false;
  }
  return true;
}

#define START_OR_SKIP()                                                \
  do {                                                                 \
    if (!start_or_skip())                                              \
      GTEST_SKIP() << "CPU profiler unavailable on this host (errno "  \
                   << obs::Profiler::unavailable_errno() << ")";       \
  } while (0)

/// Drive span-wrapped busy work through `pool` until the profiler has
/// retained samples attributed to the span, or the deadline passes.
void sample_under_pool(util::ThreadPool& pool) {
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  bool attributed = false;
  while (!attributed && Clock::now() < deadline) {
    util::parallel_for(pool, 0, pool.num_threads() * 4,
                       [](std::size_t) {
                         PHONOLID_SPAN("profiler_test_burn");
                         burn_cpu();
                       });
    const obs::ProfileData data = obs::Profiler::snapshot();
    for (const obs::ProfileSpan& span : data.spans) {
      if (span.path.find("profiler_test_burn") != std::string::npos &&
          span.samples > 0) {
        attributed = true;
        break;
      }
    }
  }
  EXPECT_TRUE(attributed)
      << "no samples attributed to the busy-work span before the deadline";
  EXPECT_GT(obs::Profiler::snapshot().samples, 0u);
}

TEST_F(ProfilerTest, SamplesWorkOnPoolWidth1) {
  START_OR_SKIP();
  util::ThreadPool pool(1);
  sample_under_pool(pool);
}

TEST_F(ProfilerTest, SamplesWorkOnPoolWidth4) {
  START_OR_SKIP();
  util::ThreadPool pool(4);
  sample_under_pool(pool);
}

TEST_F(ProfilerTest, SamplesWorkOnPoolWidth8) {
  START_OR_SKIP();
  util::ThreadPool pool(8);
  sample_under_pool(pool);
}

TEST_F(ProfilerTest, RingWraparoundCountsDrops) {
  // A 4-slot ring at ~2 kHz overflows within milliseconds of CPU burn.
  // The burner thread opens no spans (on_span_enter would drain the ring
  // opportunistically) and nobody snapshots until it exits, so overflow is
  // the only possible outcome; the handler must count drops, not block or
  // overwrite.
  obs::Profiler::set_ring_capacity_for_test(4);
  if (!obs::Profiler::start(2000)) {
    GTEST_SKIP() << "CPU profiler unavailable on this host";
  }
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  std::uint64_t dropped = 0;
  while (dropped == 0 && Clock::now() < deadline) {
    std::thread burner([] {
      // Ad-hoc threads (not pool workers, no spans) must opt in; pool
      // workers do this in worker_loop.
      obs::Profiler::register_thread();
      const auto stop_at = Clock::now() + std::chrono::milliseconds(300);
      while (Clock::now() < stop_at) burn_cpu(50000);
    });
    burner.join();
    const obs::ProfileData data = obs::Profiler::snapshot();
    dropped = data.dropped;
  }
  EXPECT_GT(dropped, 0u) << "4-slot ring never overflowed";
  EXPECT_GT(obs::Profiler::snapshot().samples, 0u);
}

TEST_F(ProfilerTest, ForcedTimerFailureDegradesGracefully) {
  obs::Profiler::force_timer_error_for_test(EPERM);
  EXPECT_FALSE(obs::Profiler::start(0));
  EXPECT_FALSE(obs::Profiler::available());
  EXPECT_FALSE(obs::Profiler::enabled());
  EXPECT_EQ(obs::Profiler::unavailable_errno(), EPERM);

  const obs::Json profile = obs::Profiler::profile_json();
  const obs::Json* source = profile.find("source");
  ASSERT_NE(source, nullptr);
  EXPECT_EQ(source->as_string(), "cpu");
  const obs::Json* available = profile.find("available");
  ASSERT_NE(available, nullptr);
  EXPECT_FALSE(available->as_bool());
  const obs::Json* err = profile.find("unavailable_errno");
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->as_double(), static_cast<double>(EPERM));

  // Clearing the forced error re-probes on the next start: the profiler
  // recovers without a process restart (skip the recovery assertion on
  // hosts where timers genuinely do not work).
  obs::Profiler::force_timer_error_for_test(0);
  if (obs::Profiler::start(997)) {
    EXPECT_TRUE(obs::Profiler::available());
    EXPECT_EQ(obs::Profiler::unavailable_errno(), 0);
  }
}

TEST_F(ProfilerTest, FoldedStackOutputParsesWithPositiveCounts) {
  START_OR_SKIP();
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  while (obs::Profiler::snapshot().samples == 0 && Clock::now() < deadline) {
    PHONOLID_SPAN("profiler_test_folded");
    burn_cpu();
  }
  obs::Profiler::stop();
  ASSERT_GT(obs::Profiler::snapshot().samples, 0u);

  const std::string text = obs::folded_stacks_text();
  ASSERT_FALSE(text.empty());
  std::istringstream lines(text);
  std::string line;
  std::vector<std::string> all_lines;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    // "<frame>;<frame>;...;<frame> <count>": the last space splits the
    // stack from its sample count, which must parse as a positive integer.
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 0u) << line;
    const std::string stack = line.substr(0, space);
    const std::string count_str = line.substr(space + 1);
    ASSERT_FALSE(count_str.empty()) << line;
    std::size_t parsed = 0;
    const long long count = std::stoll(count_str, &parsed);
    EXPECT_EQ(parsed, count_str.size()) << line;
    EXPECT_GT(count, 0) << line;
    // Frames never contain the separators the format reserves.
    for (const char c : stack) {
      EXPECT_NE(c, '\n');
    }
    all_lines.push_back(line);
  }
  ASSERT_FALSE(all_lines.empty());
  // Byte-stable export: lines come out sorted.
  EXPECT_TRUE(std::is_sorted(all_lines.begin(), all_lines.end()));
}

// --- report-diff profile gate ----------------------------------------------

/// Minimal schema-v1 report with a profile section holding one function.
obs::Json profile_report(double self_share, std::uint64_t dropped = 0) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"schema_version\": 1,"
      " \"profile\": {\"source\": \"cpu\", \"available\": true, \"hz\": 99,"
      "   \"samples\": 1000, \"dropped\": %llu,"
      "   \"functions\": [{\"name\": \"fft\", \"self\": %d, \"total\": %d,"
      "                    \"self_share\": %.17g, \"total_share\": %.17g}]}}",
      static_cast<unsigned long long>(dropped),
      static_cast<int>(self_share * 1000), static_cast<int>(self_share * 1000),
      self_share, self_share);
  return obs::Json::parse(buf);
}

TEST(ProfilerReportDiff, SelfShareWithinBudgetPasses) {
  const std::vector<obs::Gate> opt = {
      obs::parse_gate("profile/functions/*/self_share:delta<=0.05")};
  const auto result =
      obs::diff_reports(profile_report(0.50), profile_report(0.52), opt);
  EXPECT_FALSE(result.violated);
  bool saw_gated_row = false;
  for (const auto& row : result.rows) {
    if (row.key == "profile/functions/fft/self_share") {
      EXPECT_TRUE(row.gated);
      EXPECT_EQ(row.gate, "profile/functions/*/self_share:delta<=0.05");
      EXPECT_FALSE(row.violation);
      saw_gated_row = true;
    }
  }
  EXPECT_TRUE(saw_gated_row);
}

TEST(ProfilerReportDiff, SelfShareRegressionFires) {
  const std::vector<obs::Gate> opt = {
      obs::parse_gate("profile/functions/*/self_share:delta<=0.05")};
  const auto result =
      obs::diff_reports(profile_report(0.50), profile_report(0.60), opt);
  EXPECT_TRUE(result.violated);
  bool saw_violation = false;
  for (const auto& row : result.rows) {
    if (row.key == "profile/functions/fft/self_share" && row.violation) {
      EXPECT_EQ(row.gate, "profile/functions/*/self_share:delta<=0.05");
      saw_violation = true;
    }
  }
  EXPECT_TRUE(saw_violation);
  // Improvements never violate.
  EXPECT_FALSE(
      obs::diff_reports(profile_report(0.60), profile_report(0.50), opt)
          .violated);
}

TEST(ProfilerReportDiff, MissingProfileSectionStaysANote) {
  // Old baselines predate the profiler; they must diff clean under the
  // gate, with the absent section surfaced as a note only.
  const obs::Json old_baseline =
      obs::Json::parse("{\"schema_version\": 1}");
  const std::vector<obs::Gate> opt = {
      obs::parse_gate("profile/functions/*/self_share:delta<=0.05")};
  const auto result =
      obs::diff_reports(old_baseline, profile_report(0.50), opt);
  EXPECT_FALSE(result.violated);
  bool noted = false;
  for (const auto& note : result.notes) {
    if (note.find("profile") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted);
}

TEST(ProfilerReportDiff, DroppedSamplesSurfaceAsWarning) {
  const auto result = obs::diff_reports(profile_report(0.50),
                                        profile_report(0.50, /*dropped=*/7));
  EXPECT_FALSE(result.violated);  // drops warn, they never gate
  bool warned = false;
  for (const auto& note : result.notes) {
    if (note.find("WARNING") != std::string::npos &&
        note.find("current") != std::string::npos &&
        note.find("profiler samples") != std::string::npos) {
      warned = true;
    }
  }
  EXPECT_TRUE(warned);
  EXPECT_NE(result.format().find("WARNING"), std::string::npos);
}

}  // namespace
