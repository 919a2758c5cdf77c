#include "support/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/error.h"

namespace gks {
namespace {

TEST(ThreadPool, DefaultSizeIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 1000; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 5) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ShutdownWithTasksPendingCompletesEveryFuture) {
  // Service teardown path: the pool is destroyed while the queue is
  // still deep and workers are mid-task. Every future obtained before
  // shutdown must still become ready (the destructor drains rather
  // than drops), and no join/notify race may lose a task.
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(4);
    for (int i = 0; i < 200; ++i) {
      futures.push_back(pool.submit([&ran, i] {
        if (i % 7 == 0) std::this_thread::yield();
        ran.fetch_add(1);
      }));
    }
    // Destructor runs here with most of the queue still pending.
  }
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    f.get();
  }
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPool, SubmitDuringShutdownThrowsInsteadOfHanging) {
  // Once shutdown has begun, workers exit as soon as the queue drains;
  // a late submit could enqueue a task nobody will ever run and its
  // future would never become ready. The pool fails loudly instead.
  // The resubmission is attempted from inside a worker task while the
  // destructor is blocked joining — exactly the window where the task
  // would otherwise be dropped.
  std::atomic<bool> threw{false};
  std::future<void> task;
  {
    auto pool = std::make_unique<ThreadPool>(1);
    ThreadPool* raw = pool.get();
    std::promise<void> entered;
    task = pool->submit([raw, &entered, &threw] {
      entered.set_value();
      // Give the destructor time to set the stop flag and start joining.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      try {
        raw->submit([] {});
      } catch (const InvalidArgument&) {
        threw = true;
      }
    });
    entered.get_future().get();
    pool.reset();  // joins; the task resubmits while stop is set
  }
  task.get();
  EXPECT_TRUE(threw.load());
}

TEST(ThreadPool, ParallelChunksCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_chunks(1000, 7,
                       [&hits](std::size_t, std::uint64_t begin,
                               std::uint64_t end) {
                         for (std::uint64_t i = begin; i < end; ++i) {
                           hits[i].fetch_add(1);
                         }
                       });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelChunksWorkerIdsAreDense) {
  ThreadPool pool(3);
  std::atomic<int> bad{0};
  // 2 chunks over 3 workers: worker ids must stay below
  // min(size, n_chunks).
  pool.parallel_chunks(20, 10,
                       [&bad](std::size_t worker, std::uint64_t,
                              std::uint64_t) {
                         if (worker >= 2) bad.fetch_add(1);
                       });
  EXPECT_EQ(bad.load(), 0);
}

TEST(ThreadPool, ParallelChunksHandlesEdgeShapes) {
  ThreadPool pool(2);
  // n == 0: no calls.
  pool.parallel_chunks(0, 8, [](std::size_t, std::uint64_t, std::uint64_t) {
    FAIL() << "no chunks expected";
  });
  // chunk larger than n: one call covering everything.
  std::atomic<int> calls{0};
  pool.parallel_chunks(5, 100,
                       [&calls](std::size_t, std::uint64_t begin,
                                std::uint64_t end) {
                         calls.fetch_add(1);
                         EXPECT_EQ(begin, 0u);
                         EXPECT_EQ(end, 5u);
                       });
  EXPECT_EQ(calls.load(), 1);
  // chunk == 0 is clamped to 1.
  std::atomic<int> covered{0};
  pool.parallel_chunks(3, 0,
                       [&covered](std::size_t, std::uint64_t begin,
                                  std::uint64_t end) {
                         covered.fetch_add(static_cast<int>(end - begin));
                       });
  EXPECT_EQ(covered.load(), 3);
}

TEST(ThreadPool, ParallelChunksPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_chunks(100, 10,
                           [](std::size_t, std::uint64_t begin,
                              std::uint64_t) {
                             if (begin == 50) throw std::runtime_error("x");
                           }),
      std::runtime_error);
}

TEST(ThreadPool, FailedTaskStillWaitsForTheOthers) {
  // The tasks reference the caller's stack: a throw in one must not
  // return control while another is still running.
  std::atomic<int> finished{0};
  ThreadPool pool(2);
  const auto slow_unless_first = [&](std::uint64_t first) {
    if (first == 0) throw std::runtime_error("x");
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    finished.fetch_add(1);
  };
  EXPECT_THROW(
      pool.parallel_for(2, [&](std::size_t i) { slow_unless_first(i); }),
      std::runtime_error);
  EXPECT_EQ(finished.load(), 1);
  EXPECT_THROW(pool.parallel_chunks(2, 1,
                                    [&](std::size_t, std::uint64_t begin,
                                        std::uint64_t) {
                                      slow_unless_first(begin);
                                    }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 2);
}

TEST(ThreadPool, SingleThreadPoolIsSequentialAndComplete) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.submit([&order, i] { order.push_back(i); }));
  }
  for (auto& f : futures) f.get();
  std::vector<int> expected(20);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

}  // namespace
}  // namespace gks
