#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace vor::util {

namespace {

/// Set for the duration of WorkerLoop, so ParallelFor can recognise a
/// call made from one of its own tasks and degrade to inline execution
/// (all workers blocking in f.get() on pool-owned futures is a deadlock).
thread_local const ThreadPool* tls_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  // Join exactly once; later Shutdown() calls (including the destructor
  // after an explicit Shutdown) are no-ops.
  bool do_join = false;
  {
    std::lock_guard lock(mutex_);
    if (!joined_) {
      joined_ = true;
      do_join = true;
    }
  }
  if (do_join) {
    for (std::thread& t : workers_) t.join();
  }
}

bool ThreadPool::stopping() const {
  std::lock_guard lock(mutex_);
  return stopping_;
}

bool ThreadPool::InWorkerThread() const noexcept {
  return tls_worker_pool == this;
}

ThreadPoolTelemetry ThreadPool::Telemetry() const {
  std::lock_guard lock(mutex_);
  return telemetry_;
}

void ThreadPool::WorkerLoop() {
  tls_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) break;  // stopping_ with drained queue
      task = std::move(queue_.front());
      queue_.pop();
      ++telemetry_.tasks_executed;
    }
    task();
  }
  tls_worker_pool = nullptr;
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  {
    std::lock_guard lock(mutex_);
    ++telemetry_.parallel_for_calls;
    telemetry_.parallel_for_indices += n;
    if (InWorkerThread()) ++telemetry_.parallel_for_inline_calls;
  }

  // Reentrancy guard: a body running on this pool that fans out again
  // must not wait on futures only this pool's (busy) workers could
  // fulfil.  Inline serial execution preserves the semantics (same
  // indices, same exceptions).
  if (InWorkerThread()) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  // Atomic work counter: each worker claims the next index, so uneven task
  // costs (some sweep points resolve many overflows, some none) balance
  // out.  The first exception stops every worker at its next claim.
  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  auto aborted = std::make_shared<std::atomic<bool>>(false);
  std::exception_ptr error;
  std::mutex error_mutex;

  const std::size_t shards = std::min(n, thread_count());
  std::vector<std::future<void>> futures;
  futures.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    futures.push_back(Submit([&, next, aborted] {
      for (;;) {
        if (aborted->load()) return;
        const std::size_t i = next->fetch_add(1);
        if (i >= n) return;
        try {
          body(i);
        } catch (...) {
          std::lock_guard lock(error_mutex);
          if (!aborted->exchange(true)) error = std::current_exception();
          return;
        }
      }
    }));
  }
  for (auto& f : futures) f.get();
  if (error) std::rethrow_exception(error);
}

}  // namespace vor::util
