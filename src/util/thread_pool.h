// Shared-memory parallelism substrate: a fixed-size worker pool whose only
// fork-join primitive is `parallel_for`, a structured task group (DESIGN.md
// §6).  The caller queues at most num_threads() helper entries, claims
// blocks itself from the group's atomic cursor, then withdraws its queued
// entries and waits until no helper is inside the group.  A waiter only
// runs its own group's blocks, so nesting cannot deadlock.  Helpers run
// under the caller's obs::SpanContext, so spans, joules and profile samples
// nest under the submitter's span at any pool width.  Parallel results
// must go to disjoint, pre-sized slots (deterministic at any width).
//
// Metrics (obs::Metrics, shared by all pools): threadpool.tasks_submitted /
// tasks_completed count blocks; threadpool.queue_depth gauges queued helper
// entries; threadpool.task_wait_s / task_run_s time helper queueing and
// blocks.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace phonolid::util {

class ThreadPool;

/// Run body(i) for i in [begin, end) across the pool, in contiguous blocks.
/// Blocks until every index is done.  Exceptions from the body propagate
/// (the first one thrown is rethrown, after no helper still runs the
/// group; blocks not yet started when it was thrown are skipped).
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t min_block = 1);

/// Convenience overload on the global pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t min_block = 1);

class ThreadPool {
 public:
  /// `num_threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t num_threads() const noexcept { return workers_.size(); }

  /// Process-wide pool, sized from PHONOLID_THREADS or hardware concurrency.
  static ThreadPool& global();

 private:
  struct Group;
  friend void parallel_for(ThreadPool&, std::size_t, std::size_t,
                           const std::function<void(std::size_t)>&,
                           std::size_t);

  void worker_loop(std::size_t worker_index);

  std::vector<std::thread> workers_;
  std::deque<Group*> queue_;  // helper entries; a group appears once per slot
  std::mutex mutex_;          // guards queue_, stop_ and every Group::active
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace phonolid::util
