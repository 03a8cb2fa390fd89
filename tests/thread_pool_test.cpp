// ThreadPool: fan-out coverage, worker-slot ranges, exception propagation,
// concurrent callers, and shutdown edge cases (the sharded engine, the
// experiment fan-out and the A2C learner ride on these).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace tango {
namespace {

TEST(ThreadPool, RunsEveryItemExactlyOnce) {
  ThreadPool pool(3);
  ASSERT_EQ(pool.size(), 3);
  ASSERT_EQ(pool.concurrency(), 4);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), [&](std::size_t i, int worker) {
    EXPECT_GE(worker, 0);
    EXPECT_LE(worker, pool.size());
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, AutoSizeSpawnsAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1);
}

TEST(ThreadPool, ZeroItemsIsANoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(0, [&](std::size_t, int) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SingleItemRunsOnTheCaller) {
  ThreadPool pool(2);
  int worker_seen = -1;
  pool.ParallelFor(1, [&](std::size_t, int worker) { worker_seen = worker; });
  EXPECT_EQ(worker_seen, pool.size());  // caller slot
}

TEST(ThreadPool, ManySmallBatchesInSequence) {
  // Exercises batch retirement/generation logic: a stale worker must never
  // re-run a finished batch or miss a fresh one at the same stack address.
  ThreadPool pool(2);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> sum{0};
    pool.ParallelFor(16, [&](std::size_t i, int) {
      sum.fetch_add(static_cast<int>(i));
    });
    EXPECT_EQ(sum.load(), 120);
  }
}

TEST(ThreadPool, ConcurrentCallersEachCompleteTheirBatch) {
  // Four threads share one pool, as concurrent experiments share the
  // learner pool. Each batch must run every item exactly once and be
  // complete when its caller's ParallelFor returns.
  ThreadPool pool(3);
  constexpr int kCallers = 4;
  constexpr int kBatches = 200;
  std::atomic<int> bad{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &bad, c] {
      for (int r = 0; r < kBatches; ++r) {
        const std::size_t n = 1 + static_cast<std::size_t>((r * 7 + c) % 40);
        std::vector<std::atomic<int>> hits(n);
        pool.ParallelFor(n, [&](std::size_t i, int worker) {
          if (worker < 0 || worker > pool.size()) bad.fetch_add(1);
          hits[i].fetch_add(1);
        });
        for (const auto& h : hits) {
          if (h.load() != 1) bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(ThreadPool, CallerDoesNotWaitForAnotherCallersBatch) {
  // Batch A occupies every pool thread until `release`. Batch B, from
  // another thread, must finish on its own caller and return while A still
  // holds the pool threads.
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<int> started{0};
  const std::size_t a_items = static_cast<std::size_t>(pool.concurrency());
  std::thread a([&] {
    pool.ParallelFor(a_items, [&](std::size_t, int) {
      started.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (started.load() < static_cast<int>(a_items) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  if (started.load() != static_cast<int>(a_items)) {
    release.store(true);
    a.join();
    FAIL() << "batch A never held every slot";
  }
  std::atomic<bool> b_returned{false};
  std::atomic<int> b_items{0};
  std::thread b([&] {
    pool.ParallelFor(16, [&](std::size_t, int) { b_items.fetch_add(1); });
    b_returned.store(true);
  });
  while (!b_returned.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  const bool returned_while_a_ran = b_returned.load();
  release.store(true);  // never leave A's threads spinning
  a.join();
  b.join();
  EXPECT_TRUE(returned_while_a_ran);
  EXPECT_EQ(b_items.load(), 16);
}

TEST(ThreadPool, FirstExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.ParallelFor(64,
                       [&](std::size_t i, int) {
                         if (i == 5) throw std::runtime_error("boom");
                         ran.fetch_add(1);
                       }),
      std::runtime_error);
  // Items claimed before the abandon flag flipped still completed; the
  // batch joined deterministically either way.
  EXPECT_LE(ran.load(), 63);
  // The pool is intact and usable for the next batch.
  std::atomic<int> again{0};
  pool.ParallelFor(8, [&](std::size_t, int) { again.fetch_add(1); });
  EXPECT_EQ(again.load(), 8);
}

TEST(ThreadPool, ShutdownDegradesToSerialExecution) {
  ThreadPool pool(2);
  pool.Shutdown();
  EXPECT_EQ(pool.size(), 0);
  std::set<int> workers;
  int count = 0;
  pool.ParallelFor(10, [&](std::size_t, int worker) {
    workers.insert(worker);
    ++count;  // single-threaded now: no atomics needed
  });
  EXPECT_EQ(count, 10);
  // All on the caller slot (size() == 0 after shutdown).
  EXPECT_EQ(workers, std::set<int>{0});
}

TEST(ThreadPool, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  pool.Shutdown();
  pool.Shutdown();  // must not deadlock or double-join
  SUCCEED();
}

TEST(ThreadPool, DestructorJoinsWithoutDeadlock) {
  std::atomic<int> sum{0};
  {
    ThreadPool pool(4);
    pool.ParallelFor(100, [&](std::size_t, int) { sum.fetch_add(1); });
  }  // ~ThreadPool joins here
  EXPECT_EQ(sum.load(), 100);
}

TEST(ThreadPool, ExceptionOnDegradedPathPropagates) {
  ThreadPool pool(2);
  pool.Shutdown();
  EXPECT_THROW(pool.ParallelFor(3,
                                [](std::size_t i, int) {
                                  if (i == 1) throw std::logic_error("x");
                                }),
               std::logic_error);
}

}  // namespace
}  // namespace tango
