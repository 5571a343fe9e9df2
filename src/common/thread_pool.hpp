// Fixed-size worker pool used by the cloud backend's parallel-processing
// pipeline (the paper's Spark cluster stand-in) and by the evaluation harness.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/annotations.hpp"

namespace crowdmap::common {

/// Work-queue thread pool. Tasks are std::function<void()>; submit() returns
/// a future for the task's result. Destruction drains the queue then joins.
class ThreadPool {
 public:
  /// Fires with a snapshot of the queue depth after every enqueue/dequeue.
  /// Invoked OUTSIDE the pool lock so a slow observer cannot serialize the
  /// workers; consecutive depths may therefore arrive out of order (feeding
  /// an obs::Gauge, which only keeps the latest value, is the intended use).
  using QueueObserver = std::function<void(std::size_t depth)>;
  /// Fires with a task's wall-clock seconds after it finishes. Also invoked
  /// outside the lock.
  using TaskObserver = std::function<void(double seconds)>;

  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void set_queue_observer(QueueObserver observer) CM_EXCLUDES(mutex_);
  void set_task_observer(TaskObserver observer) CM_EXCLUDES(mutex_);

  /// Enqueues a callable; returns a future for its result.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    auto future = task->get_future();
    std::size_t depth = 0;
    QueueObserver observer;
    {
      MutexLock lock(mutex_);
      if (stopping_) throw std::runtime_error("submit on stopped ThreadPool");
      queue_.emplace_back([task] { (*task)(); });
      depth = queue_.size();
      observer = queue_observer_;
    }
    cv_.notify_one();
    if (observer) observer(depth);
    return future;
  }

  /// Blocks until every queued and running task has finished.
  void wait_idle() CM_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t worker_count() const noexcept { return threads_.size(); }
  [[nodiscard]] std::size_t pending() const CM_EXCLUDES(mutex_);

 private:
  void worker_loop() CM_EXCLUDES(mutex_);

  mutable Mutex mutex_;
  ConditionVariable cv_;
  ConditionVariable idle_cv_;
  std::deque<std::function<void()>> queue_ CM_GUARDED_BY(mutex_);
  std::vector<std::thread> threads_;  // written only before/after the workers run
  QueueObserver queue_observer_ CM_GUARDED_BY(mutex_);
  TaskObserver task_observer_ CM_GUARDED_BY(mutex_);
  std::size_t active_ CM_GUARDED_BY(mutex_) = 0;
  bool stopping_ CM_GUARDED_BY(mutex_) = false;
};

/// Runs fn(i) for every i in [0, n), fanning chunks of `grain` indices out
/// over `pool`'s workers while the calling thread participates as well — a
/// null pool (or a trivially small loop) degrades to the plain serial loop.
///
/// Scheduling is dynamic (a shared atomic chunk cursor), so WHICH thread runs
/// a given index is nondeterministic; callers that need deterministic results
/// must make fn(i) write only to per-index state (slot i) and merge in index
/// order afterwards. The first exception thrown by fn is captured, the
/// remaining chunks are cancelled, and the exception is rethrown here.
///
/// Nesting is safe: because the caller drains the chunk cursor itself, every
/// parallel_for completes even when all pool workers are blocked inside other
/// parallel_for calls — queued helper tasks that arrive after the loop is
/// done find the cursor exhausted and return without touching fn. For the
/// same reason a call made from a task that a stopping pool is still
/// draining completes on the caller alone.
template <typename F>
void parallel_for(ThreadPool* pool, std::size_t n, F&& fn,
                  std::size_t grain = 1) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t chunks = (n + grain - 1) / grain;
  if (pool == nullptr || pool->worker_count() == 0 || chunks < 2) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Shared by value with the helper tasks so a helper that only gets
  // scheduled after this call returned still finds live state.
  struct Shared {
    std::atomic<std::size_t> next{0};
    Mutex mutex;
    ConditionVariable idle;
    std::size_t active CM_GUARDED_BY(mutex) = 0;  // helpers inside the loop
    std::exception_ptr error CM_GUARDED_BY(mutex);
  };
  auto shared = std::make_shared<Shared>();
  auto drain = [shared, n, grain, &fn] {
    for (;;) {
      const std::size_t start = shared->next.fetch_add(grain);
      if (start >= n) return;
      const std::size_t stop = std::min(n, start + grain);
      try {
        for (std::size_t i = start; i < stop; ++i) fn(i);
      } catch (...) {
        MutexLock lock(shared->mutex);
        if (!shared->error) shared->error = std::current_exception();
        shared->next.store(n);  // cancel the remaining chunks
      }
    }
  };
  const std::size_t helpers = std::min(pool->worker_count(), chunks - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    try {
      (void)pool->submit([shared, drain] {
        {
          MutexLock lock(shared->mutex);
          ++shared->active;
        }
        drain();
        {
          MutexLock lock(shared->mutex);
          --shared->active;
        }
        shared->idle.notify_all();
      });
    } catch (...) {
      // A pool that is shutting down takes no new tasks. Helpers are only
      // help: the caller drains whatever they would have taken, and must
      // not unwind while an already-queued helper can still reach fn.
      break;
    }
  }
  drain();  // the calling thread always participates
  {
    // Helpers that have not bumped `active` yet can no longer reach fn (the
    // cursor is exhausted), so waiting for active == 0 is sufficient — and it
    // cannot deadlock on a saturated pool the way joining futures would.
    MutexLock lock(shared->mutex);
    while (shared->active != 0) shared->idle.wait(shared->mutex);
    if (shared->error) std::rethrow_exception(shared->error);
  }
}

}  // namespace crowdmap::common
