#include "obs/trace.h"

#include "obs/profiler.h"

#include <algorithm>
#include <ctime>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#if defined(__unix__) || defined(__APPLE__)
#include <pthread.h>
#endif

namespace phonolid::obs {

namespace {

/// Calling thread's CPU time in seconds (0 where the clock is unavailable).
double thread_cpu_seconds() noexcept {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return 0.0;
}

/// Per-thread span state.  The table mutex is only ever contended by
/// snapshot()/reset() and the energy sampler — the owning thread takes it
/// uncontended on each span enter/exit, which on Linux is a couple of
/// uncontended atomic ops.  `path` is written by the owner and read by
/// Trace::active_threads(), so both sides hold the mutex.
struct ThreadTable {
  std::mutex mutex;
  std::unordered_map<std::string, SpanStats> stats;
  std::string path;    // '/'-joined stack of active span names
  std::uint32_t index = 0;
#if defined(__unix__) || defined(__APPLE__)
  pthread_t handle{};
#endif

  ~ThreadTable();
};

struct TraceRegistry {
  std::mutex mutex;
  std::vector<ThreadTable*> live;
  /// Stats of exited threads, keyed by (path, thread index).
  std::map<std::pair<std::string, std::uint32_t>, SpanStats> retired;
  std::uint32_t next_index = 0;
};

TraceRegistry& registry() {
  // Leaked on purpose: pool worker threads flush their tables here when they
  // exit, which can happen during static destruction.
  static TraceRegistry* reg = new TraceRegistry();
  return *reg;
}

ThreadTable::~ThreadTable() {
  TraceRegistry& reg = registry();
  std::lock_guard reg_lock(reg.mutex);
  std::lock_guard lock(mutex);
  for (auto& [span_path, s] : stats) {
    reg.retired[{span_path, index}].merge(s);
  }
  std::erase(reg.live, this);
}

ThreadTable& thread_table() {
  thread_local ThreadTable t;
  thread_local bool registered = [] {
    TraceRegistry& reg = registry();
    std::lock_guard lock(reg.mutex);
    t.index = reg.next_index++;
#if defined(__unix__) || defined(__APPLE__)
    t.handle = pthread_self();
#endif
    reg.live.push_back(&t);
    return true;
  }();
  (void)registered;
  return t;
}

/// Span names may be `std::string::c_str()` of strings that die with the
/// scope (the experiment's per-front-end spans do), yet flight-recorder
/// events and profiler samples keep the pointer until export, so every
/// name is interned once into a leaked pool; node-based unordered_set keeps
/// c_str() stable across rehashes.
const char* intern_span_name(const char* name) noexcept {
  static std::mutex* mutex = new std::mutex();
  static std::unordered_set<std::string>* pool =
      new std::unordered_set<std::string>();
  try {
    std::lock_guard lock(*mutex);
    return pool->emplace(name).first->c_str();
  } catch (...) {
    return "(intern-failed)";
  }
}

}  // namespace

Span::Span(const char* name) noexcept : name_(intern_span_name(name)) {
  ThreadTable& t = thread_table();
  parent_len_ = t.path.size();
  {
    std::lock_guard lock(t.mutex);
    if (!t.path.empty()) t.path.push_back('/');
    t.path.append(name);
  }
  Profiler::on_span_enter(name_);
  FlightRecorder::begin(name_);
  hw_valid_ = Perf::read_thread(hw_start_);
  cpu_start_s_ = thread_cpu_seconds();
  start_ = std::chrono::steady_clock::now();
}

double Span::stop() noexcept {
  if (stopped_) return 0.0;
  stopped_ = true;
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  const double cpu_seconds =
      std::max(0.0, thread_cpu_seconds() - cpu_start_s_);
  HwCounters hw_now;
  HwCounters hw_delta;
  const bool hw_ok = hw_valid_ && Perf::read_thread(hw_now);
  if (hw_ok) hw_delta = hw_now.delta(hw_start_);
  FlightRecorder::end(name_, args_, num_args_);
  Profiler::on_span_exit();
  ThreadTable& t = thread_table();
  {
    std::lock_guard lock(t.mutex);
    t.stats[t.path].record(seconds, cpu_seconds,
                           hw_ok ? &hw_delta : nullptr);
    t.path.resize(parent_len_);
  }
  return seconds;
}

void Span::annotate(const char* key, std::int64_t value) noexcept {
  if (num_args_ < kMaxEventArgs) {
    args_[num_args_] = EventArg{key, value};
    ++num_args_;
  }
}

Span::~Span() { stop(); }

std::vector<SpanSnapshot> Trace::snapshot() {
  TraceRegistry& reg = registry();
  std::map<std::string, SpanSnapshot> merged;
  const auto absorb = [&merged](const std::string& path, std::uint32_t thread,
                                const SpanStats& s) {
    SpanSnapshot& snap = merged[path];
    snap.path = path;
    snap.total.merge(s);
    snap.by_thread[thread].merge(s);
  };
  std::lock_guard reg_lock(reg.mutex);
  for (ThreadTable* t : reg.live) {
    std::lock_guard lock(t->mutex);
    for (const auto& [path, s] : t->stats) absorb(path, t->index, s);
  }
  for (const auto& [key, s] : reg.retired) absorb(key.first, key.second, s);

  std::vector<SpanSnapshot> out;
  out.reserve(merged.size());
  for (auto& [path, snap] : merged) out.push_back(std::move(snap));
  return out;
}

const std::string& Trace::current_thread_path() noexcept {
  return thread_table().path;
}

std::vector<ActiveThread> Trace::active_threads() {
  TraceRegistry& reg = registry();
  std::vector<ActiveThread> out;
  std::lock_guard reg_lock(reg.mutex);
  out.reserve(reg.live.size());
  for (ThreadTable* t : reg.live) {
    ActiveThread a;
    a.index = t->index;
    {
      std::lock_guard lock(t->mutex);
      a.path = t->path;
    }
#if defined(__unix__) && defined(CLOCK_THREAD_CPUTIME_ID)
    clockid_t cid;
    timespec ts{};
    if (pthread_getcpuclockid(t->handle, &cid) == 0 &&
        clock_gettime(cid, &ts) == 0) {
      a.cpu_s = static_cast<double>(ts.tv_sec) +
                static_cast<double>(ts.tv_nsec) * 1e-9;
    }
#endif
    out.push_back(std::move(a));
  }
  return out;
}

SpanContext SpanContext::capture() {
  return {thread_table().path, Profiler::span_stack()};
}

void SpanContext::install() const {
  ThreadTable& t = thread_table();
  {
    std::lock_guard lock(t.mutex);
    t.path = path;
  }
  Profiler::set_span_stack(profile);
}

void Trace::reset() {
  TraceRegistry& reg = registry();
  std::lock_guard reg_lock(reg.mutex);
  for (ThreadTable* t : reg.live) {
    std::lock_guard lock(t->mutex);
    t->stats.clear();
  }
  reg.retired.clear();
}

}  // namespace phonolid::obs
