#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace reach {

namespace {

/// One ForEach call's shared state. Helpers hold it by shared_ptr: a
/// helper may start after its caller returned, and then claims no index
/// and never touches `fn`.
struct FanOut {
  FanOut(size_t count, const std::function<Status(size_t)>* body)
      : n(count), fn(body) {}

  /// Claim and run indices until none is left.
  void Drain() {
    for (size_t i; (i = next.fetch_add(1)) < n;) {
      Status st;
      std::exception_ptr thrown;
      try {
        st = (*fn)(i);
      } catch (...) {
        thrown = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mu);
      if (!st.ok() && status.ok()) status = std::move(st);
      if (thrown && !crash) crash = thrown;
      if (++finished == n) done_cv.notify_all();
    }
  }

  const size_t n;
  const std::function<Status(size_t)>* const fn;
  std::atomic<size_t> next{0};
  std::mutex mu;
  std::condition_variable done_cv;
  size_t finished = 0;  // under mu
  Status status;        // first error, under mu
  std::exception_ptr crash;
};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return false;
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
  return true;
}

Status ThreadPool::ForEach(size_t n,
                           const std::function<Status(size_t)>& fn) {
  if (n == 0) return Status::OK();
  auto fan = std::make_shared<FanOut>(n, &fn);
  const size_t helpers = std::min(n - 1, num_threads());
  for (size_t h = 0; h < helpers; ++h) {
    if (!Submit([fan] { fan->Drain(); })) break;
  }
  fan->Drain();
  // Every index is claimed now; wait only for those running helpers took.
  std::unique_lock<std::mutex> lock(fan->mu);
  fan->done_cv.wait(lock, [&] { return fan->finished == n; });
  if (fan->crash) std::rethrow_exception(fan->crash);
  return fan->status;
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace reach
