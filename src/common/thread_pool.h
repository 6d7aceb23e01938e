// Fixed-size worker pool: the rule engine's detached pool (detached rule
// transactions, and sibling subtransactions fanned out by ForEach) and the
// process-wide morsel pool of parallel query scans.
//
// ForEach is a caller-runs fan-out: the calling thread claims indices
// beside the helper tasks it submits, so it only ever waits for an index a
// running helper has already claimed. No thread waits on work that has not
// started, which is what lets sibling subtransactions share a pool with
// tasks that block on locks and fsync, and lets ForEach nest on one pool.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace reach {

class ThreadPool {
 public:
  /// Starts `num_threads` workers (>=1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task for asynchronous execution. Returns false if the pool is
  /// shutting down.
  bool Submit(std::function<void()> task);

  /// Run fn(0) .. fn(n-1), each exactly once, on the calling thread and up
  /// to min(n-1, num_threads()) helper tasks, all claiming indices from one
  /// counter; returns the first non-OK status. An exception thrown by `fn`
  /// (an injected crash fault) is parked and rethrown here once every
  /// claimed index has finished, never on a pool thread.
  Status ForEach(size_t n, const std::function<Status(size_t)>& fn);

  /// Block until the queue is empty and all workers are idle.
  void WaitIdle();

  /// Stop accepting tasks, drain the queue, join workers. Idempotent.
  void Shutdown();

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  size_t active_ = 0;
  bool shutdown_ = false;
};

}  // namespace reach
