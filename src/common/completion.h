// Completion plumbing for fanned-out work: a latch that joins a batch of
// submitted operations back into one blocking caller, merging per-operation
// statuses into a single result (first error wins, later ones are dropped).
//
// Used by the morsel-parallel query executor (query/executor.cc): the
// submitting thread creates one latch per query, hands CountDown to each
// worker, and blocks in Wait until every worker reported in.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>

#include "common/status.h"

namespace reach {

class CompletionLatch {
 public:
  explicit CompletionLatch(size_t expected) : remaining_(expected) {}

  CompletionLatch(const CompletionLatch&) = delete;
  CompletionLatch& operator=(const CompletionLatch&) = delete;

  /// Report one operation complete. Thread-safe; callable from any worker or
  /// completion-reaper thread. The first non-OK status becomes the batch
  /// status.
  void CountDown(Status st = Status::OK()) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!st.ok() && status_.ok()) status_ = std::move(st);
    if (remaining_ > 0 && --remaining_ == 0) cv_.notify_all();
  }

  /// Block until every expected operation counted down; returns the merged
  /// batch status.
  Status Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return remaining_ == 0; });
    return status_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t remaining_;
  Status status_;
};

}  // namespace reach
