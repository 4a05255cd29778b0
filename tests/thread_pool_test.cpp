#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace autopipe::util {
namespace {

TEST(ThreadPool, RunsSubmittedTasksAndReturnsValues) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

TEST(ThreadPool, ClampsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, ResultIndependentOfCompletionOrder) {
  // Tasks finish in arbitrary order; collecting futures by index must give
  // the same reduction as a serial loop.
  ThreadPool pool(8);
  std::vector<std::future<long>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([i] { return static_cast<long>(i) * 3; }));
  }
  long sum = 0;
  for (auto& f : futures) sum += f.get();
  EXPECT_EQ(sum, 3L * 200 * 199 / 2);
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures) {
  ThreadPool pool(2);
  auto bad = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  auto good = pool.submit([] { return 1; });
  EXPECT_THROW(bad.get(), std::runtime_error);
  EXPECT_EQ(good.get(), 1);  // one failing task does not poison the pool
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnceAndRethrows) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  parallel_for(&pool, 100, [&](int i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  // Inline fallback (no pool) behaves identically.
  std::vector<int> inline_hits(10, 0);
  parallel_for(nullptr, 10, [&](int i) { ++inline_hits[i]; });
  EXPECT_EQ(std::accumulate(inline_hits.begin(), inline_hits.end(), 0), 10);

  EXPECT_THROW(parallel_for(&pool, 8,
                            [](int i) {
                              if (i == 3) throw std::invalid_argument("x");
                            }),
               std::invalid_argument);
}

TEST(ThreadPool, QueueDepthTracksBacklogNotRunningTasks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.queue_depth(), 0u);

  // Park the single worker so later submissions stay queued.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  auto running = pool.submit([gate] { gate.wait(); });

  // Wait for the worker to pick the blocker up (it leaves the queue).
  while (pool.queue_depth() > 0) std::this_thread::yield();

  auto a = pool.submit([] { return 1; });
  auto b = pool.submit([] { return 2; });
  EXPECT_EQ(pool.queue_depth(), 2u);  // blocker runs, two wait

  release.set_value();
  EXPECT_EQ(a.get(), 1);
  EXPECT_EQ(b.get(), 2);
  running.get();
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPool, TrySubmitShedsLoadAtTheBound) {
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  auto running = pool.submit([gate] { gate.wait(); });
  while (pool.queue_depth() > 0) std::this_thread::yield();

  // Bound 2: two queued tasks are admitted, the third is shed without
  // being enqueued (and without disturbing the admitted ones).
  auto a = pool.try_submit([] { return 10; }, 2);
  auto b = pool.try_submit([] { return 20; }, 2);
  auto rejected = pool.try_submit([] { return 30; }, 2);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_FALSE(rejected.has_value());
  EXPECT_EQ(pool.queue_depth(), 2u);

  // max_queue 0 rejects everything while the pool is saturated.
  EXPECT_FALSE(pool.try_submit([] { return 0; }, 0).has_value());

  release.set_value();
  EXPECT_EQ(a->get(), 10);
  EXPECT_EQ(b->get(), 20);
  running.get();

  // Once drained, try_submit admits again.
  auto after = pool.try_submit([] { return 40; }, 2);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->get(), 40);
}

TEST(ThreadPool, ResolveThreadsConvention) {
  EXPECT_EQ(resolve_threads(1), 1);
  EXPECT_EQ(resolve_threads(5), 5);
  EXPECT_EQ(resolve_threads(-2), 1);
  EXPECT_GE(resolve_threads(0), 1);  // auto = hardware concurrency
}

}  // namespace
}  // namespace autopipe::util
