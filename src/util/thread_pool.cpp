#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace phonolid::util {

namespace {

using Clock = std::chrono::steady_clock;

// Latency buckets spanning sub-microsecond queue waits up to multi-second
// stalls (seconds, upper edges).
const std::vector<double>& latency_edges() {
  static const std::vector<double> edges = {1e-6, 1e-5, 1e-4, 1e-3, 1e-2,
                                            1e-1, 1.0,  10.0};
  return edges;
}

struct PoolMetrics {
  obs::Counter& submitted = obs::Metrics::counter("threadpool.tasks_submitted");
  obs::Counter& completed = obs::Metrics::counter("threadpool.tasks_completed");
  obs::Gauge& queue_depth = obs::Metrics::gauge("threadpool.queue_depth");
  obs::Histogram& wait_s =
      obs::Metrics::histogram("threadpool.task_wait_s", latency_edges());
  obs::Histogram& run_s =
      obs::Metrics::histogram("threadpool.task_run_s", latency_edges());

  void add_queued(std::int64_t delta) {
    const std::int64_t depth = queue_depth.add(delta);
    PHONOLID_COUNTER_SAMPLE("threadpool.queue_depth",
                            static_cast<double>(depth));
  }
};

PoolMetrics& pool_metrics() {
  static PoolMetrics m;
  return m;
}

}  // namespace

/// One parallel_for call.  Lives on the caller's stack: the caller withdraws
/// its still-queued helper entries and waits for `active` to reach zero
/// before returning, so no helper can touch it afterwards.
struct ThreadPool::Group {
  /// Claim and run blocks until the cursor passes the end.  Once any block
  /// has thrown, claimed blocks are skipped; the first exception is kept.
  void run_blocks() {
    PoolMetrics& metrics = pool_metrics();
    for (;;) {
      const std::size_t b = next_block.fetch_add(1, std::memory_order_relaxed);
      if (b >= num_blocks) return;
      if (!failed.load(std::memory_order_relaxed)) {
        const std::size_t lo = begin + b * block;
        const std::size_t hi = std::min(end, lo + block);
        const auto start = Clock::now();
        try {
          for (std::size_t i = lo; i < hi; ++i) body(i);
        } catch (...) {
          if (!failed.exchange(true)) error = std::current_exception();
        }
        metrics.run_s.observe(
            std::chrono::duration<double>(Clock::now() - start).count());
      }
      metrics.completed.add();
    }
  }

  const std::function<void(std::size_t)>& body;
  const std::size_t begin, end, block, num_blocks;
  const obs::SpanContext context = obs::SpanContext::capture();
  const Clock::time_point forked = Clock::now();
  std::atomic<std::size_t> next_block{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error{};  // written once, by whoever flipped `failed`
  std::size_t active = 0;    // helpers inside run_blocks (pool mutex_)
  std::condition_variable idle{};
};

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  obs::FlightRecorder::set_thread_name("pool-worker-" +
                                       std::to_string(worker_index));
  // Register with the sampling profiler up front so a profiled run samples
  // workers from their first block (arms this thread's timer if running).
  obs::Profiler::register_thread();
  PoolMetrics& metrics = pool_metrics();
  std::unique_lock lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping; callers withdraw their entries
    Group* group = queue_.front();
    queue_.pop_front();
    ++group->active;
    lock.unlock();
    metrics.add_queued(-1);
    metrics.wait_s.observe(
        std::chrono::duration<double>(Clock::now() - group->forked).count());
    group->context.install();
    group->run_blocks();
    obs::SpanContext{}.install();  // idle workers have no open spans
    lock.lock();
    // Notify under the lock: the caller cannot wake, return and destroy
    // the group before this thread releases the mutex.
    if (--group->active == 0) group->idle.notify_all();
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("PHONOLID_THREADS")) {
      const long n = std::strtol(env, nullptr, 10);
      if (n > 0) return static_cast<std::size_t>(n);
    }
    return std::size_t{0};
  }());
  return pool;
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t min_block) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t workers = pool.num_threads();
  if (workers <= 1 || n <= min_block) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  // Over-decompose 4x for load balance; clamp block size to min_block.
  const std::size_t blocks = std::min(n, workers * 4);
  const std::size_t block = std::max(min_block, (n + blocks - 1) / blocks);

  ThreadPool::Group group{body, begin, end, block, (n + block - 1) / block};
  PoolMetrics& metrics = pool_metrics();
  metrics.submitted.add(group.num_blocks);
  // The caller runs blocks too, so one helper fewer than blocks suffices.
  const std::size_t helpers = std::min(workers, group.num_blocks - 1);
  {
    std::lock_guard lock(pool.mutex_);
    pool.queue_.insert(pool.queue_.end(), helpers, &group);
  }
  metrics.add_queued(static_cast<std::int64_t>(helpers));
  for (std::size_t h = 0; h < helpers; ++h) pool.cv_.notify_one();

  group.run_blocks();

  std::size_t withdrawn = 0;
  {
    std::unique_lock lock(pool.mutex_);
    withdrawn = std::erase(pool.queue_, &group);
    group.idle.wait(lock, [&group] { return group.active == 0; });
  }
  if (withdrawn > 0) metrics.add_queued(-static_cast<std::int64_t>(withdrawn));
  if (group.error) std::rethrow_exception(group.error);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t min_block) {
  parallel_for(ThreadPool::global(), begin, end, body, min_block);
}

}  // namespace phonolid::util
