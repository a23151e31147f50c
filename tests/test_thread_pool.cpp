#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace vor::util {
namespace {

TEST(ThreadPoolTest, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto f = pool.Submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  long long total = 0;
  for (auto& f : futures) total += f.get();
  long long expected = 0;
  for (int i = 0; i < 200; ++i) expected += 1LL * i * i;
  EXPECT_EQ(total, expected);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  pool.ParallelFor(3, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(100,
                                [](std::size_t i) {
                                  if (i == 37) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, SingleThreadPoolWorks) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.ParallelFor(50, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
  EXPECT_EQ(pool.thread_count(), 1u);
}

TEST(ThreadPoolTest, DefaultUsesHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

// ---- shutdown contract --------------------------------------------------

TEST(ThreadPoolTest, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  pool.Shutdown();
  EXPECT_TRUE(pool.stopping());
  // Pre-fix, this silently enqueued a task that could never run and left
  // the returned future forever unready; the contract is now fail-fast.
  EXPECT_THROW(pool.Submit([] { return 1; }), std::runtime_error);
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  pool.Shutdown();
  pool.Shutdown();  // second call (and the destructor after) must no-op
  EXPECT_THROW(pool.Submit([] {}), std::runtime_error);
}

TEST(ThreadPoolTest, ShutdownDrainsAcceptedTasks) {
  std::atomic<int> executed{0};
  {
    ThreadPool pool(1);
    // The single worker is busy with the first task while the rest queue
    // up; Shutdown must still run every accepted task before joining.
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 50; ++i) {
      futures.push_back(pool.Submit([&executed] { executed.fetch_add(1); }));
    }
    pool.Shutdown();
    for (auto& f : futures) f.get();  // all ready: nothing lost
  }
  EXPECT_EQ(executed.load(), 50);
}

TEST(ThreadPoolStressTest, SubmitShutdownRaceAcceptedImpliesExecuted) {
  // A submitter hammers the pool while the main thread shuts it down.
  // Every Submit either throws (rejected) or yields a future that becomes
  // ready (executed) — no accepted task may be dropped, no hang.
  for (int round = 0; round < 25; ++round) {
    auto pool = std::make_unique<ThreadPool>(2);
    std::atomic<int> executed{0};
    int accepted = 0;
    std::atomic<bool> go{false};
    std::thread submitter([&] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < 500; ++i) {
        try {
          pool->Submit([&executed] { executed.fetch_add(1); });
          ++accepted;
        } catch (const std::runtime_error&) {
          break;  // shutdown won the race: fail-fast is the contract
        }
      }
    });
    go.store(true);
    pool->Shutdown();
    submitter.join();
    pool.reset();
    EXPECT_EQ(executed.load(), accepted);
  }
}

TEST(ThreadPoolStressTest, OversubscribedPoolCompletesAllWork) {
  // Many more workers than cores, many more indices than workers.
  ThreadPool pool(16);
  std::vector<std::atomic<int>> hits(5000);
  pool.ParallelFor(5000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolStressTest, ExceptionPropagationOrderFirstThrownWins) {
  // One worker claims indices in order, so the smallest failing index's
  // exception is the first thrown and must be the one propagated.
  ThreadPool pool(1);
  try {
    pool.ParallelFor(100, [](std::size_t i) {
      if (i == 5) throw std::runtime_error("first");
      if (i == 9) throw std::runtime_error("second");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

// ---- reentrancy ---------------------------------------------------------

TEST(ThreadPoolTest, InWorkerThreadDetection) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.InWorkerThread());
  auto f = pool.Submit([&pool] { return pool.InWorkerThread(); });
  EXPECT_TRUE(f.get());
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineInsteadOfDeadlocking) {
  // A body fanning out on the pool it runs on used to deadlock: every
  // worker blocked in f.get() on futures only those same (busy) workers
  // could fulfil.  Reentrant calls now execute inline.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(4, [&](std::size_t) {
    pool.ParallelFor(8, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 4 * 8);
}

TEST(ThreadPoolTest, NestedParallelForPropagatesInnerException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(2,
                                [&](std::size_t) {
                                  pool.ParallelFor(4, [](std::size_t j) {
                                    if (j == 2) {
                                      throw std::runtime_error("inner");
                                    }
                                  });
                                }),
               std::runtime_error);
}

// ---- early exit ---------------------------------------------------------

TEST(ThreadPoolTest, ParallelForStopsClaimingAfterThrow) {
  // One worker claims indices in order: once index 37 throws, no later
  // index runs.
  ThreadPool pool(1);
  std::vector<int> ran(100, 0);
  EXPECT_THROW(pool.ParallelFor(100,
                                [&](std::size_t i) {
                                  ran[i] = 1;
                                  if (i == 37) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  for (std::size_t i = 0; i < ran.size(); ++i) {
    EXPECT_EQ(ran[i], i <= 37 ? 1 : 0) << "index " << i;
  }
}

}  // namespace
}  // namespace vor::util
