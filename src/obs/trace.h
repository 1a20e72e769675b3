// Hierarchical trace spans with per-thread attribution.
//
// A Span is an RAII scope that measures wall time under a '/'-joined path
// built from the enclosing spans on the same thread — or, inside
// util::parallel_for blocks, from the forking caller's spans (see
// SpanContext below):
//
//   void process() {
//     PHONOLID_SPAN("pipeline");
//     { PHONOLID_SPAN("decode"); ... }   // aggregates under "pipeline/decode"
//   }
//
// Each thread owns a private aggregation table (path -> count/total/min/max),
// so entering and leaving a span never contends with other threads; tables
// are merged when Trace::snapshot() is called and when a thread exits.
//
// When the flight recorder (obs/flight_recorder.h) is enabled, every span
// additionally emits a begin/end event pair, so Perfetto timelines come for
// free from the same instrumentation points.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/perf.h"
#include "obs/profiler.h"

namespace phonolid::obs {

/// Aggregated statistics for one span path (on one thread, or merged).
/// `cpu_s` is thread CPU time (CLOCK_THREAD_CPUTIME_ID) consumed between
/// span entry and exit on the recording thread — wall vs. CPU separates
/// "slow because busy" from "slow because waiting" per stage.  `hw` holds
/// hardware-counter deltas (obs/perf.h) accumulated over the same scopes;
/// all-zero when perf is unavailable.
struct SpanStats {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double cpu_s = 0.0;
  double min_s = std::numeric_limits<double>::infinity();
  double max_s = 0.0;
  HwCounters hw;

  void record(double seconds, double cpu_seconds = 0.0,
              const HwCounters* hw_delta = nullptr) noexcept {
    ++count;
    total_s += seconds;
    cpu_s += cpu_seconds;
    if (seconds < min_s) min_s = seconds;
    if (seconds > max_s) max_s = seconds;
    if (hw_delta != nullptr) hw.merge(*hw_delta);
  }
  void merge(const SpanStats& o) noexcept {
    count += o.count;
    total_s += o.total_s;
    cpu_s += o.cpu_s;
    if (o.min_s < min_s) min_s = o.min_s;
    if (o.max_s > max_s) max_s = o.max_s;
    hw.merge(o.hw);
  }
};

/// One path's merged view plus the per-thread breakdown.
struct SpanSnapshot {
  std::string path;
  SpanStats total;
  /// Keyed by a small per-thread index assigned in registration order
  /// (index 0 is whichever thread recorded a span first).
  std::map<std::uint32_t, SpanStats> by_thread;
};

class Span {
 public:
  /// `name` is copied (interned), so it may be a temporary string.
  explicit Span(const char* name) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Record the span now (instead of at scope exit) and return the elapsed
  /// seconds.  Subsequent destruction is a no-op.
  double stop() noexcept;

  /// Attach a key/value to this span's end event in the flight recorder
  /// (shown as "args" in Perfetto; e.g. the DBA round index or |Tr_DBA|).
  /// At most kMaxEventArgs annotations; extras are silently dropped.  Has
  /// no effect on the aggregated statistics.
  void annotate(const char* key, std::int64_t value) noexcept;

 private:
  std::chrono::steady_clock::time_point start_;
  double cpu_start_s_ = 0.0;  // thread CPU clock at entry
  const char* name_ = nullptr;
  HwCounters hw_start_;       // this thread's counters at entry
  EventArg args_[kMaxEventArgs];
  std::uint8_t num_args_ = 0;
  std::size_t parent_len_ = 0;  // path length to restore on exit
  bool hw_valid_ = false;  // hw_start_ holds a successful perf read
  bool stopped_ = false;
};

/// One live thread's instantaneous span state, for cross-thread samplers
/// (obs/energy.h apportions RAPL package joules by CPU-time weight).
struct ActiveThread {
  std::uint32_t index = 0;  // same per-thread index as SpanSnapshot
  std::string path;         // '/'-joined active span stack ("" = idle)
  double cpu_s = 0.0;       // that thread's cumulative CPU seconds
};

class Trace {
 public:
  /// Merged view over every thread that ever recorded a span (including
  /// threads that have since exited), sorted by path.
  static std::vector<SpanSnapshot> snapshot();

  /// The calling thread's current '/'-joined span path ("" outside spans).
  /// Valid only on the calling thread and only until the next span
  /// enter/exit there.
  [[nodiscard]] static const std::string& current_thread_path() noexcept;

  /// Every live registered thread's current span path and CPU time.
  /// Safe to call from a sampler thread while spans open and close.
  [[nodiscard]] static std::vector<ActiveThread> active_threads();

  /// Drop all recorded statistics (active spans still record on exit).
  static void reset();
};

/// The span context a thread works under: its trace path (also the software
/// energy model's charge key) and the profiler's span-name stack.
/// util::parallel_for captures the forking caller's context and installs it
/// on each helper while the helper runs the group's blocks.
struct SpanContext {
  std::string path;
  ProfileSpanStack profile;

  /// The calling thread's current context.
  [[nodiscard]] static SpanContext capture();
  /// Make this the calling thread's context.
  void install() const;
};

#define PHONOLID_OBS_CAT2(a, b) a##b
#define PHONOLID_OBS_CAT(a, b) PHONOLID_OBS_CAT2(a, b)
/// Opens an RAII trace span for the rest of the enclosing scope.
#define PHONOLID_SPAN(name) \
  ::phonolid::obs::Span PHONOLID_OBS_CAT(phonolid_span_, __LINE__)(name)

}  // namespace phonolid::obs
