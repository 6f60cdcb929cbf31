// Tests for the work-stealing fork-join scheduler (DESIGN.md S1):
// par_do correctness under nesting, parallel_for coverage and determinism,
// worker-count control, and stress under fine-grained forking.
#include "parallel/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace p = ligra::parallel;

TEST(Scheduler, DefaultPoolHasAtLeastOneWorker) {
  EXPECT_GE(p::num_workers(), 1);
}

TEST(Scheduler, MainThreadIsWorkerZero) {
  (void)p::num_workers();  // force pool construction from this thread
  EXPECT_EQ(p::worker_id(), 0);
}

TEST(Scheduler, ParDoRunsBothSides) {
  bool left = false, right = false;
  p::par_do([&] { left = true; }, [&] { right = true; });
  EXPECT_TRUE(left);
  EXPECT_TRUE(right);
}

TEST(Scheduler, ParDoReturnsAfterBothComplete) {
  std::atomic<int> count{0};
  p::par_do([&] { count.fetch_add(1); }, [&] { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 2);
}

TEST(Scheduler, NestedParDo) {
  std::atomic<int> count{0};
  p::par_do(
      [&] {
        p::par_do([&] { count.fetch_add(1); }, [&] { count.fetch_add(1); });
      },
      [&] {
        p::par_do([&] { count.fetch_add(1); }, [&] { count.fetch_add(1); });
      });
  EXPECT_EQ(count.load(), 4);
}

TEST(Scheduler, DeeplyNestedParDo) {
  // A fork tree of depth 14 (2^14 leaves); exercises deque depth and joins.
  std::atomic<int64_t> leaves{0};
  struct rec {
    static void go(std::atomic<int64_t>& acc, int depth) {
      if (depth == 0) {
        acc.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      p::par_do([&] { go(acc, depth - 1); }, [&] { go(acc, depth - 1); });
    }
  };
  rec::go(leaves, 14);
  EXPECT_EQ(leaves.load(), int64_t{1} << 14);
}

TEST(Scheduler, ParallelForVisitsEveryIndexOnce) {
  const size_t n = 1 << 18;
  std::vector<std::atomic<int>> hits(n);
  p::parallel_for(0, n, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; i++) ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(Scheduler, ParallelForEmptyRange) {
  bool called = false;
  p::parallel_for(5, 5, [&](size_t) { called = true; });
  p::parallel_for(7, 3, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Scheduler, ParallelForSingleElement) {
  int value = 0;
  p::parallel_for(41, 42, [&](size_t i) { value = static_cast<int>(i); });
  EXPECT_EQ(value, 41);
}

TEST(Scheduler, ParallelForRespectsExplicitGranularity) {
  // With granularity >= n the loop must run sequentially on the caller.
  const size_t n = 1000;
  std::vector<int> order;
  p::parallel_for(
      0, n, [&](size_t i) { order.push_back(static_cast<int>(i)); }, n);
  ASSERT_EQ(order.size(), n);
  for (size_t i = 0; i < n; i++) EXPECT_EQ(order[i], static_cast<int>(i));
}

TEST(Scheduler, ParallelForNestedInParallelFor) {
  const size_t n = 64, m = 64;
  std::vector<std::atomic<int>> hits(n * m);
  p::parallel_for(0, n, [&](size_t i) {
    p::parallel_for(0, m, [&](size_t j) { hits[i * m + j].fetch_add(1); }, 4);
  }, 1);
  for (size_t k = 0; k < n * m; k++) ASSERT_EQ(hits[k].load(), 1);
}

TEST(Scheduler, SetNumWorkersOneRunsSequentially) {
  int before = p::num_workers();
  p::set_num_workers(1);
  EXPECT_EQ(p::num_workers(), 1);
  std::atomic<int64_t> sum{0};
  p::parallel_for(0, 100000, [&](size_t i) {
    sum.fetch_add(static_cast<int64_t>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), int64_t{100000} * 99999 / 2);
  p::set_num_workers(before);
  EXPECT_EQ(p::num_workers(), before);
}

TEST(Scheduler, SetNumWorkersSurvivesRepeatedResizes) {
  int before = p::num_workers();
  for (int round = 0; round < 3; round++) {
    for (int w = 1; w <= 4; w++) {
      p::set_num_workers(w);
      std::atomic<int> count{0};
      p::parallel_for(0, 1024, [&](size_t) { count.fetch_add(1); });
      ASSERT_EQ(count.load(), 1024) << "workers=" << w;
    }
  }
  p::set_num_workers(before);
}

TEST(Scheduler, StressManySmallParallelRegions) {
  // Lots of tiny regions back to back — exercises wakeup/parking paths.
  for (int round = 0; round < 2000; round++) {
    std::atomic<int> c{0};
    p::par_do([&] { c.fetch_add(1); }, [&] { c.fetch_add(1); });
    ASSERT_EQ(c.load(), 2);
  }
}

TEST(Scheduler, ForeignThreadFallsBackToSequential) {
  // A thread outside the pool has no deque; parallel constructs must still
  // produce correct results (executed inline).
  (void)p::num_workers();  // pool owned by this (main) thread
  std::atomic<int64_t> sum{0};
  std::thread outsider([&] {
    EXPECT_EQ(p::worker_id(), -1);
    p::par_do([&] { sum.fetch_add(1); }, [&] { sum.fetch_add(2); });
    p::parallel_for(0, 1000, [&](size_t i) {
      sum.fetch_add(static_cast<int64_t>(i), std::memory_order_relaxed);
    });
  });
  outsider.join();
  EXPECT_EQ(sum.load(), 3 + 999 * 1000 / 2);
}

TEST(Scheduler, UnbalancedForkTrees) {
  // Heavily skewed recursion (right side much deeper) exercises the
  // steal-while-waiting path.
  std::atomic<int64_t> count{0};
  struct rec {
    static void go(std::atomic<int64_t>& acc, int depth) {
      if (depth == 0) {
        acc.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      p::par_do([&] { acc.fetch_add(1, std::memory_order_relaxed); },
                [&] { go(acc, depth - 1); });
    }
  };
  rec::go(count, 5000);
  EXPECT_EQ(count.load(), 5001);
}

TEST(Scheduler, ParallelForCapturesMutableState) {
  // Writes to disjoint slots need no synchronization.
  const size_t n = 100000;
  std::vector<uint64_t> out(n);
  p::parallel_for(0, n, [&](size_t i) { out[i] = i * i; });
  for (size_t i = 0; i < n; i += 9973) EXPECT_EQ(out[i], i * i);
}

TEST(Scheduler, WorkIsActuallyDistributed) {
  if (p::num_workers() < 2) GTEST_SKIP() << "needs >= 2 workers";
  // Record which worker ran each chunk; with enough chunks of real work,
  // more than one worker must appear.
  const size_t n = 1 << 22;
  std::vector<int> owner(n / 4096 + 1, -1);
  std::atomic<uint64_t> sink{0};
  p::parallel_for(
      0, n,
      [&](size_t i) {
        if (i % 4096 == 0) owner[i / 4096] = p::worker_id();
        sink.fetch_add(1, std::memory_order_relaxed);
      },
      2048);
  std::vector<int> seen;
  for (int w : owner)
    if (w >= 0 && std::find(seen.begin(), seen.end(), w) == seen.end())
      seen.push_back(w);
  EXPECT_GE(seen.size(), 2u);
  EXPECT_EQ(sink.load(), n);
}

// --- foreign threads -------------------------------------------------------

// Concurrent query dispatchers are foreign threads that run parallel loops
// inline; many of them at once must each cover their range exactly.
TEST(Scheduler, ManyConcurrentForeignSubmissions) {
  (void)p::num_workers();
  const int threads = 8, rounds = 20;
  const size_t n = 1 << 12;
  std::atomic<uint64_t> total{0};
  std::vector<std::thread> ts;
  ts.reserve(threads);
  for (int t = 0; t < threads; t++) {
    ts.emplace_back([&] {
      for (int r = 0; r < rounds; r++) {
        p::parallel_for(0, n, [&](size_t) {
          total.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(total.load(), static_cast<uint64_t>(threads) * rounds * n);
}
