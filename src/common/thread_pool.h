// Fixed-size worker pool used for parallel rule execution, detached
// transactions, parallel query scans, and the global-history background
// process.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

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

  /// Enqueue a task and get a future for its completion.
  template <typename F>
  auto SubmitWithResult(F&& fn) -> std::future<decltype(fn())> {
    using R = decltype(fn());
    auto prom = std::make_shared<std::promise<R>>();
    std::future<R> fut = prom->get_future();
    bool accepted = Submit([prom, fn = std::forward<F>(fn)]() mutable {
      if constexpr (std::is_void_v<R>) {
        fn();
        prom->set_value();
      } else {
        prom->set_value(fn());
      }
    });
    if (!accepted) {
      prom->set_exception(std::make_exception_ptr(
          std::runtime_error("thread pool shut down")));
    }
    return fut;
  }

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
