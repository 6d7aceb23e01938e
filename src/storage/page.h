// Fixed-size page: the unit of disk I/O and buffering.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>

#include "common/types.h"

namespace reach {

inline constexpr size_t kPageSize = 4096;

/// A page frame. The raw bytes are interpreted by SlottedPage (data pages)
/// or by the storage manager (meta page 0).
///
/// Concurrency: `pin_count` and `io_pending` are atomics because the buffer
/// pool's lock-free fetch fast path pins a frame with a CAS and checks
/// io_pending without holding the shard mutex (docs/STORAGE.md "Lock-free
/// page table"). Every other field — dirty, the page id, and the data
/// bytes of an unpinned frame — is still guarded by the owning shard's
/// mutex. A pin_count of kEvictLatch (-1) means an evictor holds the frame
/// exclusively: TryPin refuses and the reader falls back to the locked
/// path.
class Page {
 public:
  static constexpr int kEvictLatch = -1;

  Page() { Reset(); }

  /// Clear the frame for reuse. Deliberately preserves pin_count_: the
  /// buffer pool resets recycled frames while holding the evict latch, and
  /// dropping it here would let a stale lock-free reader pin a frame that
  /// is mid-fill.
  void Reset() {
    std::memset(data_, 0, kPageSize);
    page_id_ = kInvalidPageId;
    io_pending_.store(false, std::memory_order_relaxed);
    last_access_.store(0, std::memory_order_relaxed);
    dirty_ = false;
  }

  char* data() { return data_; }
  const char* data() const { return data_; }

  PageId page_id() const { return page_id_; }
  void set_page_id(PageId id) { page_id_ = id; }

  int pin_count() const { return pin_count_.load(std::memory_order_acquire); }
  void Pin() { pin_count_.fetch_add(1, std::memory_order_acq_rel); }
  void Unpin() {
    int c = pin_count_.load(std::memory_order_relaxed);
    while (c > 0 &&
           !pin_count_.compare_exchange_weak(c, c - 1,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed)) {
    }
  }

  /// Lock-free pin: succeeds only while the frame is not latched for
  /// eviction (pin_count >= 0). The caller must re-verify the page-table
  /// bucket afterwards — the CAS alone cannot rule out having pinned a
  /// frame that was recycled between the bucket load and the pin.
  bool TryPin() {
    int c = pin_count_.load(std::memory_order_acquire);
    while (c >= 0) {
      if (pin_count_.compare_exchange_weak(c, c + 1,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
        return true;
      }
    }
    return false;
  }

  /// Evictor's exclusive latch: 0 -> kEvictLatch. Fails if any pin (or a
  /// concurrent TryPin) holds the frame. Caller holds the shard mutex.
  bool TryLatchForEvict() {
    int expected = 0;
    return pin_count_.compare_exchange_strong(expected, kEvictLatch,
                                              std::memory_order_acq_rel,
                                              std::memory_order_relaxed);
  }
  /// Release the evict latch, restoring `pins` (0, or 1 when the evictor
  /// hands the recycled frame straight to its caller pinned).
  void UnlatchTo(int pins) {
    pin_count_.store(pins, std::memory_order_release);
  }

  bool dirty() const { return dirty_; }
  void set_dirty(bool dirty) { dirty_ = dirty; }

  /// A batched read is filling this frame (BufferPool::ReadAhead);
  /// FetchPage must wait for the fill before handing the page out.
  bool io_pending() const { return io_pending_.load(std::memory_order_acquire); }
  void set_io_pending(bool pending) {
    io_pending_.store(pending, std::memory_order_release);
  }

  /// Approximate-LRU clock: the shard's access tick at the last fetch. The
  /// victim scan picks the unpinned frame with the smallest value.
  uint64_t last_access() const {
    return last_access_.load(std::memory_order_relaxed);
  }
  void set_last_access(uint64_t tick) {
    last_access_.store(tick, std::memory_order_relaxed);
  }

 private:
  char data_[kPageSize];
  PageId page_id_ = kInvalidPageId;
  std::atomic<int> pin_count_{0};
  std::atomic<bool> io_pending_{false};
  std::atomic<uint64_t> last_access_{0};
  bool dirty_ = false;
};

}  // namespace reach
