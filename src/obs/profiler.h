// In-process sampling CPU profiler with span attribution.
//
// The span/energy/hw-counter stack only sees code that was explicitly
// instrumented; this layer finds the hot loops nobody wrapped in a
// PHONOLID_SPAN.  Each profiled thread owns a POSIX per-thread CPU-time
// timer (timer_create on the thread's CLOCK_THREAD_CPUTIME_ID, SIGPROF via
// SIGEV_THREAD_ID), so a thread is sampled in proportion to the CPU it
// actually burns — idle threads cost nothing and emit nothing.  The SIGPROF
// handler is strictly async-signal-safe: it walks the frame-pointer chain
// of the interrupted context (bounded by the thread's stack extent, read
// once at registration), copies the calling thread's open span-name stack
// (maintained as an array of string-literal pointers with an atomic depth,
// never the std::string path in obs/trace.cpp), and appends one fixed-size
// record to a bounded lock-free per-thread ring.  When the ring is full the
// sample is counted in `dropped` and discarded — like the flight recorder,
// a profile that silently lost data is worse than no profile.
//
// Nothing allocates, locks, or symbolizes in signal context.  Rings drain
// into a central aggregation map at span boundaries (when at least half
// full) and at snapshot time; symbolization (obs/symbolize.h) happens only
// when a report, folded-stack export, or `phonolid flame` asks for names.
//
// Every sample carries the innermost open span path, so statistical
// self-time composes with the span tree: the report's "profile" section has
// both a top-functions table and per-span sample shares that line up with
// the "spans" section and the §11 energy apportionment.
//
// Environment:  PHONOLID_PROFILE=off|cpu  (default off)
//               PHONOLID_PROFILE_HZ=<n>   (per-thread CPU rate, default 99)
//               PHONOLID_PROFILE_OUT=<p>  (folded stacks written at exit)
//
// Degradation mirrors obs/perf.cpp: a failed timer_create / sigaction
// probe (ENOSYS, seccomp, unsupported architecture) leaves the profiler
// unavailable — spans and reports keep working, and the report says
// `profile.available: false` with the errno and reason.  Never an error.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.h"

namespace phonolid::obs {

/// Default sampling rate.  99 Hz (prime-ish, off the 100 Hz tick) is the
/// classic choice: cheap enough to stay under 1% overhead, dense enough
/// that a quick-scale run collects thousands of samples.
inline constexpr int kDefaultProfileHz = 99;

/// Open span names recorded per sample; deeper spans are counted but not
/// named.
inline constexpr std::size_t kMaxProfileSpanDepth = 8;

/// A thread's profiler span-name stack (interned names, outermost first;
/// `depth` may exceed the named slots).  Part of obs::SpanContext.
struct ProfileSpanStack {
  std::array<const char*, kMaxProfileSpanDepth> names{};
  std::uint32_t depth = 0;
};

/// One aggregated call stack: `count` samples observed this exact stack
/// under this span path.  `frames` is root-first (outermost caller at
/// index 0, sampled leaf last), matching the folded-stack convention.
struct ProfileStack {
  std::string span_path;            // "" when sampled outside any span
  std::vector<std::string> frames;  // symbolized, root-first
  std::uint64_t count = 0;
};

/// Per-function rollup: `self` counts samples charged to this function,
/// `total` counts samples with this function anywhere on the stack (each
/// stack counted once, recursion deduplicated).  Self time is charged to
/// the innermost *symbolized* frame: when the sampled leaf is an
/// unsymbolizable system-library internal (a stripped libc/libm ifunc
/// variant shows up as "libm.so.6+0x..."), the sample's self time rolls
/// up to its nearest named caller — the pprof/gprof convention.  The raw
/// placeholder frames are preserved in ProfileStack for flamegraphs.
struct ProfileFunction {
  std::string name;
  std::uint64_t self = 0;
  std::uint64_t total = 0;
};

/// Per-span rollup over the innermost open span path of each sample.
struct ProfileSpan {
  std::string path;
  std::uint64_t samples = 0;
};

/// A drained, symbolized view of everything sampled so far.
struct ProfileData {
  bool available = false;
  int error = 0;         // errno of the failed probe (0 when available)
  int hz = 0;            // configured per-thread sampling rate
  std::uint64_t samples = 0;  // retained samples (== sum of stack counts)
  std::uint64_t dropped = 0;  // samples lost to full rings
  std::uint64_t total_frames = 0;
  std::uint64_t symbolized_frames = 0;
  std::uint64_t attributed = 0;  // samples charged to a symbolized function
  std::vector<ProfileStack> stacks;        // sorted by count desc
  std::vector<ProfileFunction> functions;  // sorted by self desc
  std::vector<ProfileSpan> spans;          // sorted by samples desc
};

class Profiler {
 public:
  /// Honor PHONOLID_PROFILE / PHONOLID_PROFILE_HZ: starts sampling when
  /// PHONOLID_PROFILE=cpu.  Idempotent; called by every entry point via
  /// obs::enable_recorder_from_env().
  static void init_from_env();

  /// Start sampling at `hz` (0 = PHONOLID_PROFILE_HZ or the default).
  /// Probes timer/signal availability on first use; arms a timer on every
  /// registered live thread and on threads registered later.  Returns
  /// false — with the reason in unavailable_errno() — when the platform
  /// cannot sample; the process is unaffected either way.
  static bool start(int hz = 0);

  /// Disarm every timer.  Retained samples survive for snapshot()/export.
  static void stop() noexcept;

  [[nodiscard]] static bool enabled() noexcept;
  /// True when the probe succeeded (timers + SIGPROF delivery work).
  [[nodiscard]] static bool available() noexcept;
  /// errno of the failed probe (0 when available or never probed).
  [[nodiscard]] static int unavailable_errno() noexcept;
  [[nodiscard]] static int rate_hz() noexcept;

  /// Register the calling thread for sampling (allocates its ring and arms
  /// its timer when the profiler is running).  Cheap when already
  /// registered or disabled; called by thread-pool workers at startup and
  /// by every Span via the hooks below.
  static void register_thread() noexcept;

  // Called by obs::Span (trace.cpp) on every span enter/exit: maintains
  // the async-signal-safe span-name stack the handler tags samples with
  // (`name` must live for the whole process; Span passes interned names),
  // and opportunistically drains this thread's ring when it is at least
  // half full.  A couple of relaxed atomic ops when idle.
  static void on_span_enter(const char* name) noexcept;
  static void on_span_exit() noexcept;

  /// The calling thread's span-name stack, and its replacement (used by
  /// obs::SpanContext to carry a fork-join caller's spans onto helpers).
  [[nodiscard]] static ProfileSpanStack span_stack() noexcept;
  static void set_span_stack(const ProfileSpanStack& stack) noexcept;

  /// Drain every thread's ring and return the aggregated, symbolized view.
  /// Safe to call while sampling continues (each ring yields a consistent
  /// prefix).  Symbolization cost is paid here, once per unique pc.
  [[nodiscard]] static ProfileData snapshot();

  /// The "profile" report section: availability + totals + top-N function
  /// and per-span tables (see DESIGN.md §12 for the field reference).
  [[nodiscard]] static Json profile_json();

  /// Drop every retained sample and drop counter (tests).  Keeps timers
  /// armed when running.
  static void reset();

  /// Test hook: force every timer_create to fail with `err` (0 restores
  /// normal probing).  Disarms live timers and re-probes on next start, so
  /// the ENOSYS/EPERM degradation path is testable anywhere.
  static void force_timer_error_for_test(int err);

  /// Test hook: ring capacity (in samples) for rings created after this
  /// call; 0 restores the default.  Lets wraparound/drop tests run in
  /// milliseconds.
  static void set_ring_capacity_for_test(std::size_t samples);
};

}  // namespace phonolid::obs
