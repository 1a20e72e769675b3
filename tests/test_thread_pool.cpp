#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"

namespace phonolid::util {
namespace {

TEST(ParallelFor, ConcurrentCallersShareThePool) {
  // Groups forked from several non-pool threads at once all complete, and
  // each caller sees exactly its own indices.
  ThreadPool pool(4);
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kN = 500;
  std::vector<std::vector<int>> hits(kCallers, std::vector<int>(kN, 0));
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &hits, c] {
      for (int round = 0; round < 20; ++round) {
        parallel_for(pool, 0, kN, [&hits, c](std::size_t i) { ++hits[c][i]; });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (const auto& h : hits) {
    EXPECT_EQ(std::count(h.begin(), h.end(), 20), static_cast<long>(kN));
  }
}

TEST(ParallelFor, RethrowsOnlyAfterHelpersLeaveGroup) {
  // Block 0 throws at once while the other blocks are still sleeping on
  // helpers.  The caller may rethrow only after every started block has
  // finished: otherwise `inside` is nonzero and the helpers would still be
  // touching the caller's stack-allocated group (TSan/ASan flag that).
  ThreadPool pool(4);
  std::atomic<int> inside{0};
  std::atomic<int> started{0};
  EXPECT_THROW(
      parallel_for(pool, 0, 16,
                   [&](std::size_t i) {
                     ++inside;
                     ++started;
                     struct Leave {
                       std::atomic<int>& inside;
                       ~Leave() { --inside; }
                     } leave{inside};
                     if (i == 0) throw std::runtime_error("block 0 failed");
                     std::this_thread::sleep_for(std::chrono::milliseconds(20));
                   }),
      std::runtime_error);
  EXPECT_EQ(inside.load(), 0);
  EXPECT_GE(started.load(), 1);
}

TEST(ThreadPool, SizeRespected) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(pool, 0, n, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(4);
  int calls = 0;
  parallel_for(pool, 5, 5, [&](std::size_t) { ++calls; });
  parallel_for(pool, 7, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, NonZeroBegin) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  parallel_for(pool, 10, 20, [&](std::size_t i) { sum += static_cast<long>(i); });
  EXPECT_EQ(sum.load(), 145);  // 10+..+19
}

TEST(ParallelFor, DeterministicResultSlots) {
  ThreadPool pool(6);
  const std::size_t n = 5000;
  std::vector<double> out_a(n), out_b(n);
  const auto body = [](std::size_t i) {
    return static_cast<double>(i) * 1.5 + 1.0;
  };
  parallel_for(pool, 0, n, [&](std::size_t i) { out_a[i] = body(i); });
  parallel_for(pool, 0, n, [&](std::size_t i) { out_b[i] = body(i); });
  EXPECT_EQ(out_a, out_b);
}

TEST(ParallelFor, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(pool, 0, 100,
                   [&](std::size_t i) {
                     if (i == 57) throw std::runtime_error("body failed");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::vector<int> hits(64, 0);
  parallel_for(pool, 0, 64, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 64);
}

TEST(ParallelFor, MinBlockHonoursSerialFallback) {
  ThreadPool pool(4);
  // min_block >= n forces the serial path; result must be identical.
  std::vector<int> hits(32, 0);
  parallel_for(pool, 0, 32, [&](std::size_t i) { ++hits[i]; }, 32);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, GlobalPoolConvenience) {
  std::atomic<int> counter{0};
  parallel_for(0, 100, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ParallelFor, NestedSubmissionDoesNotDeadlock) {
  // A parallel_for inside a parallel_for body on the same narrow pool: the
  // inner caller drains its own group alone when every worker is busy.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  parallel_for(pool, 0, 8, [&](std::size_t) {
    parallel_for(pool, 0, 8, [&](std::size_t) { ++counter; });
  });
  EXPECT_EQ(counter.load(), 64);
}

TEST(ParallelFor, NestedGroupsOnNarrowPoolDoNotDeadlock) {
  // The experiment's shape: independent chains, each running a
  // parallel_for over utterances, with more chains than workers.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  parallel_for(pool, 0, 4, [&](std::size_t) {
    parallel_for(pool, std::size_t{0}, std::size_t{100},
                 [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 400);
}

/// Path -> call count of every span recorded by a two-level nested
/// parallel_for under named spans, on a pool of `width` threads.
std::map<std::string, std::uint64_t> nested_span_shape(std::size_t width,
                                                        int& wrong_paths) {
  obs::Trace::reset();
  ThreadPool pool(width);
  std::atomic<int> wrong{0};
  {
    PHONOLID_SPAN("build");
    parallel_for(pool, 0, 6, [&](std::size_t) {
      PHONOLID_SPAN("chain");
      parallel_for(pool, 0, 40, [&](std::size_t) {
        PHONOLID_SPAN("utterance");
        // The energy model charges to this path; it must be the logical one.
        if (obs::Trace::current_thread_path() != "build/chain/utterance") {
          ++wrong;
        }
        volatile double sink = 0.0;
        for (int k = 0; k < 2000; ++k) sink = sink + k;
      });
    });
  }
  wrong_paths = wrong.load();
  std::map<std::string, std::uint64_t> shape;
  for (const obs::SpanSnapshot& s : obs::Trace::snapshot()) {
    shape[s.path] = s.total.count;
  }
  return shape;
}

TEST(ParallelFor, SpanPathsIndependentOfPoolWidth) {
  int wrong1 = 0, wrong4 = 0, wrong8 = 0;
  const auto shape1 = nested_span_shape(1, wrong1);
  const auto shape4 = nested_span_shape(4, wrong4);
  const auto shape8 = nested_span_shape(8, wrong8);
  const std::map<std::string, std::uint64_t> want = {
      {"build", 1}, {"build/chain", 6}, {"build/chain/utterance", 240}};
  EXPECT_EQ(shape1, want);
  EXPECT_EQ(shape4, want);
  EXPECT_EQ(shape8, want);
  EXPECT_EQ(wrong1 + wrong4 + wrong8, 0);
  // No path may repeat a parent prefix (a helper nesting stolen work under
  // its own unrelated span would produce "chain/.../chain").
  for (const auto& [path, count] : shape8) {
    std::set<std::string> seen;
    std::stringstream parts(path);
    for (std::string part; std::getline(parts, part, '/');) {
      EXPECT_TRUE(seen.insert(part).second) << path;
    }
  }
}

}  // namespace
}  // namespace phonolid::util
