// Fixed-size thread pool with a blocking work queue plus a ParallelFor
// helper for shard-parallel parameter sweeps and solver-internal fan-out.
//
// Design notes (CppCoreGuidelines CP.*): all synchronization lives inside
// this class; callers submit value-captured, shared-nothing tasks.  The
// benchmark sweeps use ParallelFor with one scheduler instance per index,
// and the solver fans per-file greedy runs / tentative victim evaluations
// over the pool, so there is no shared mutable state between shards by
// construction.
//
// Lifecycle contract:
//   * Shutdown() (also run by the destructor) drains the queue: tasks
//     already accepted run to completion, then the workers join.
//   * Submit() after Shutdown() has begun throws std::runtime_error —
//     a silently enqueued task would never run and its future would
//     never become ready, which is how the pre-fix bug manifested.
//   * ParallelFor() called from inside one of this pool's own worker
//     threads (a task body fanning out again) degrades to inline serial
//     execution instead of deadlocking on pool-owned futures.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>
#include <vector>

namespace vor::util {

/// User-facing parallelism knob threaded through the solver options.
///   threads == 1  -> run serially on the calling thread (default);
///   threads == 0  -> one worker per hardware thread;
///   threads == N  -> pool of exactly N workers.
struct ParallelOptions {
  std::size_t threads = 1;

  /// Worker count this knob resolves to (never 0).
  [[nodiscard]] std::size_t Resolve() const {
    if (threads != 0) return threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }
};

/// Lifetime-aggregate pool activity, snapshotted by Telemetry().  All
/// numbers are cumulative since construction; `peak_queue_depth` is the
/// high-water mark of tasks waiting (not yet picked up) in the queue.
struct ThreadPoolTelemetry {
  std::uint64_t tasks_submitted = 0;
  std::uint64_t tasks_executed = 0;
  std::uint64_t peak_queue_depth = 0;
  std::uint64_t parallel_for_calls = 0;
  /// ParallelFor calls that ran inline (reentrancy guard).
  std::uint64_t parallel_for_inline_calls = 0;
  /// Total indices requested across all ParallelFor calls.
  std::uint64_t parallel_for_indices = 0;
};

class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

  /// Begins teardown: already-queued tasks still run, then workers join.
  /// Idempotent; after it returns, Submit() throws.
  void Shutdown();

  /// True once Shutdown() (or destruction) has begun.
  [[nodiscard]] bool stopping() const;

  /// True when the calling thread is one of this pool's workers.
  [[nodiscard]] bool InWorkerThread() const noexcept;

  /// Consistent snapshot of the pool's cumulative activity counters.
  [[nodiscard]] ThreadPoolTelemetry Telemetry() const;

  /// Enqueue a task; returns a future for its result.  Throws
  /// std::runtime_error if the pool is shutting down — never silently
  /// accepts work that cannot run.
  template <class F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard lock(mutex_);
      if (stopping_) {
        throw std::runtime_error(
            "ThreadPool::Submit called after Shutdown(): task would never run");
      }
      queue_.emplace([task] { (*task)(); });
      ++telemetry_.tasks_submitted;
      telemetry_.peak_queue_depth =
          std::max<std::uint64_t>(telemetry_.peak_queue_depth, queue_.size());
    }
    cv_.notify_one();
    return result;
  }

  /// Runs body(i) for i in [0, n), distributing indices over the pool, and
  /// blocks until all shards finish.  Exceptions from body propagate
  /// (first one wins); no index is claimed after the first one throws.
  /// Reentrant calls from a worker of this pool run inline and serially.
  /// body must be safe to invoke concurrently for distinct i.
  void ParallelFor(std::size_t n,
                   const std::function<void(std::size_t)>& body);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool joined_ = false;
  ThreadPoolTelemetry telemetry_;  // guarded by mutex_
};

}  // namespace vor::util
