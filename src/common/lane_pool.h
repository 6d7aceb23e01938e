// Keyed FIFO lanes: the event-composition pool (docs/EVENTS.md "Composition
// lanes"). The pool has a fixed number of lanes; each lane is one worker
// thread with its own mutex, condition variable and FIFO queue. A task is
// submitted with a key and always runs on lane `Mix(key) % lanes`, so tasks
// sharing a key run one at a time, in submission order. Nothing is stolen:
// per-key order is the whole point (Seq and Not are defined by occurrence
// order), and keys spread evenly enough that no lane needs help.
//
// Quiesce semantics match ThreadPool::WaitIdle: drained means every lane is
// empty AND every worker is idle — tracked by one atomic `pending_` (queued
// + running) that workers decrement only after the task bodies return, so
// tasks that submit follow-up tasks keep the pool non-idle until the
// cascade dies out.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace reach {

template <typename Task>
class LanePool {
 public:
  using Runner = std::function<void(Task&)>;

  LanePool(size_t num_lanes, Runner runner)
      : runner_(std::move(runner)),
        num_lanes_(num_lanes == 0 ? 1 : num_lanes),
        lanes_(new Lane[num_lanes_]) {
    workers_.reserve(num_lanes_);
    for (size_t i = 0; i < num_lanes_; ++i) {
      workers_.emplace_back([this, i] { WorkerLoop(lanes_[i]); });
    }
  }

  ~LanePool() { Shutdown(); }

  LanePool(const LanePool&) = delete;
  LanePool& operator=(const LanePool&) = delete;

  /// Enqueue `task` at the back of lane `Mix(key) % lanes`. Returns false
  /// (dropping the task) if the pool is shutting down.
  bool Submit(Task task, uint64_t key) {
    Lane& lane = lanes_[Mix(key) % num_lanes_];
    bool wake;
    {
      std::lock_guard<std::mutex> lock(lane.mu);
      if (shutdown_.load(std::memory_order_relaxed)) return false;
      pending_.fetch_add(1);
      lane.tasks.push_back(std::move(task));
      lane.depth.store(lane.tasks.size(), std::memory_order_relaxed);
      wake = lane.sleeping;
    }
    if (wake) lane.cv.notify_one();
    return true;
  }

  /// Block until every lane is empty and every worker is idle.
  void WaitIdle() {
    std::unique_lock<std::mutex> lock(idle_mu_);
    idle_cv_.wait(lock, [&] { return pending_.load() == 0; });
  }

  /// Stop accepting tasks, let every lane drain, join workers. Idempotent.
  void Shutdown() {
    for (size_t i = 0; i < num_lanes_; ++i) {
      // Flip the flag under every lane lock so no Submit is mid-push
      // against a lane whose worker already decided to exit.
      std::lock_guard<std::mutex> lock(lanes_[i].mu);
      shutdown_.store(true);
    }
    for (size_t i = 0; i < num_lanes_; ++i) lanes_[i].cv.notify_all();
    for (std::thread& w : workers_) {
      if (w.joinable()) w.join();
    }
  }

  /// Tasks currently queued across all lanes (excluding running ones).
  size_t QueueDepth() const {
    size_t n = 0;
    for (size_t i = 0; i < num_lanes_; ++i) {
      n += lanes_[i].depth.load(std::memory_order_relaxed);
    }
    return n;
  }

 private:
  /// SplitMix64 finalizer. Transaction ids advance with a stride, so the
  /// raw key modulo the lane count would leave lanes empty.
  static uint64_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  struct alignas(64) Lane {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Task> tasks;
    bool sleeping = false;  // worker is waiting on cv (under mu)
    std::atomic<size_t> depth{0};
  };

  void WorkerLoop(Lane& lane) {
    std::vector<Task> running;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(lane.mu);
        while (lane.tasks.empty()) {
          if (shutdown_.load()) return;
          lane.sleeping = true;
          lane.cv.wait(lock);
          lane.sleeping = false;
        }
        // Take the whole lane in one swap: the queue keeps FIFO order and
        // the producers' next appends go to the (empty) swapped-in buffer.
        running.swap(lane.tasks);
        lane.depth.store(0, std::memory_order_relaxed);
      }
      for (Task& task : running) runner_(task);
      const size_t n = running.size();
      running.clear();
      if (pending_.fetch_sub(n) == n) {
        std::lock_guard<std::mutex> lock(idle_mu_);
        idle_cv_.notify_all();
      }
    }
  }

  Runner runner_;
  const size_t num_lanes_;
  std::unique_ptr<Lane[]> lanes_;
  std::atomic<size_t> pending_{0};  // queued + running
  std::atomic<bool> shutdown_{false};
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  std::vector<std::thread> workers_;  // last: uses everything above
};

}  // namespace reach
