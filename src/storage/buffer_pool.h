// Buffer pool: fixed set of in-memory frames fronting the DiskManager,
// with approximate-LRU replacement and pin-count protection.
//
// Lock-free lookup keeps the hit path off the pool mutex
// (docs/STORAGE.md): the page table is an open-addressing array of
// atomic<uint64_t> buckets packing (page_id, frame_idx). A FetchPage hit
// resolves with an acquire probe, a pin CAS, and a bucket re-verify; the
// mutex is taken only on miss, eviction, or a table rebuild. Eviction
// prefers clean victims; a dirty victim is written synchronously by the
// evicting thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace reach {

class BufferPool {
 public:
  BufferPool(DiskManager* disk, size_t pool_size);

  /// Pin the page, reading it from disk if absent. Caller must Unpin.
  /// Blocks briefly if the page is mid-fill by a concurrent ReadAhead.
  Result<Page*> FetchPage(PageId page_id);

  /// Warm the pool with `pages` in one batched backend submission
  /// (DiskManager::ReadPages) so subsequent FetchPage calls hit. Pages
  /// already resident, mid-fill, or without an evictable frame are skipped —
  /// FetchPage falls back to a synchronous read for those. Best-effort on
  /// skips, but a failed backend submission is reported (and the staged
  /// frames are released).
  Status ReadAhead(const std::vector<PageId>& pages);

  /// Allocate a fresh page on disk and pin it.
  Result<Page*> NewPage();

  /// Drop a pin; `dirty` marks the frame as needing write-back.
  Status UnpinPage(PageId page_id, bool dirty);

  /// Write a specific page back to disk if dirty.
  Status FlushPage(PageId page_id);

  /// Write all dirty frames back to disk in one batch: dirty frames are
  /// collected and pinned, the log is forced once, and the batch goes down
  /// in page order (DiskManager::WritePages). Caller must guarantee no
  /// concurrent mutators (the documented Checkpoint precondition).
  Status FlushAll();

  size_t pool_size() const { return pool_size_; }
  /// Pages currently in the underlying data file (readahead upper bound).
  PageId disk_pages() const { return disk_->num_pages(); }

  /// WAL rule hook: invoked before any page reaches disk, so the storage
  /// manager can force the log first (write-ahead invariant). The page's
  /// ARIES pageLSN is passed so the hook only needs to make the log durable
  /// up to it; kInvalidLsn means "unknown" (non-slotted page) and forces
  /// the whole log.
  using PreWriteHook = std::function<Status(Lsn page_lsn)>;
  void set_pre_write_hook(PreWriteHook hook) {
    pre_write_hook_ = std::move(hook);
  }

  /// Statistics for benchmarks.
  uint64_t hit_count() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t miss_count() const {
    return misses_.load(std::memory_order_relaxed);
  }

  /// Fraction of frames currently dirty (0.0 .. 1.0).
  double dirty_ratio() const;

 private:
  static constexpr uint64_t kEmptyBucket = ~0ull;
  static constexpr uint64_t kTombstone = ~0ull - 1;
  static uint64_t PackEntry(PageId page_id, size_t frame) {
    return (static_cast<uint64_t>(page_id) << 32) |
           static_cast<uint32_t>(frame);
  }
  static PageId EntryPage(uint64_t e) { return static_cast<PageId>(e >> 32); }
  static size_t EntryFrame(uint64_t e) {
    return static_cast<uint32_t>(e & 0xFFFFFFFFu);
  }
  static size_t BucketIndex(PageId page_id, size_t mask) {
    // Fibonacci hash on the high bits, so runs of consecutive page ids
    // spread over the table.
    return static_cast<size_t>(
               (static_cast<uint64_t>(page_id) * 0x9E3779B97F4A7C15ull) >>
               32) &
           mask;
  }

  /// Lock the pool mutex, recording time spent blocked on it into the
  /// storage.bufferpool.lock_wait_ns histogram.
  std::unique_lock<std::mutex> Lock();

  /// Lock-free hit attempt: probe, pin CAS, io_pending check, bucket
  /// re-verify (in that order — the verify must be the last load so a
  /// completed unwind is never half-observed). Returns nullptr on miss or
  /// any race; the caller falls back to the locked path.
  Page* TryFetchFast(PageId page_id);

  /// Probe the table for `page_id`. Safe lock-free and under `mu_`. Returns
  /// the packed entry and sets `*bucket`, or kEmptyBucket when absent.
  uint64_t ProbeTable(PageId page_id, size_t* bucket) const;
  // Table mutation, caller holds `mu_`.
  void TableInsert(PageId page_id, size_t frame);
  void TableErase(PageId page_id);
  void TableRebuild();

  /// Find a reusable frame (free list first, then the least-recently-used
  /// unpinned victim). Prefers clean victims; a dirty victim is written
  /// synchronously. The frame is returned latched (pin_count ==
  /// kEvictLatch) and absent from the table; the caller fills it, publishes
  /// the new table entry, and unlatches. Caller holds `mu_`.
  Result<size_t> GetVictimFrame();

  /// Write one dirty frame back to disk. Caller holds `mu_`; the frame
  /// must not be concurrently mutable (latched, or pinned by the caller
  /// with no other writers).
  Status WriteBack(Page* page);

  /// Dirty-bit transitions with pool-wide accounting (dirty_count_ + the
  /// dirty-ratio gauge). Caller holds `mu_`.
  void MarkDirty(Page* page);
  void MarkClean(Page* page);

  /// Hit/miss bookkeeping for one access (lock-free).
  void NoteAccess(bool hit);

  /// Stamp `page` with the next approximate-LRU access tick.
  void Touch(Page* page) {
    page->set_last_access(tick_.fetch_add(1, std::memory_order_relaxed) + 1);
  }

  DiskManager* disk_;
  size_t pool_size_ = 0;
  std::mutex mu_;
  // Signalled when a ReadAhead fill completes (io_pending cleared) so
  // waiting FetchPage callers can stop waiting.
  std::condition_variable io_cv_;
  std::vector<std::unique_ptr<Page>> frames_;
  // Open-addressing page table: each bucket is kEmptyBucket, kTombstone, or
  // (page_id << 32 | frame_idx). Lock-free readers probe with acquire
  // loads; all writes (insert/erase/rebuild) happen under `mu_`. The
  // capacity is fixed at 2x the frame count, so "resize" is a same-size
  // rebuild that reclaims tombstones when empties run low — concurrent
  // readers may see a transient false miss and retry under the mutex, never
  // a false hit.
  std::unique_ptr<std::atomic<uint64_t>[]> table_;
  size_t table_mask_ = 0;
  size_t table_empties_ = 0;         // guarded by mu_
  std::vector<size_t> free_frames_;  // guarded by mu_
  std::atomic<uint64_t> tick_{0};    // approximate-LRU access clock
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  PreWriteHook pre_write_hook_;
  std::atomic<size_t> dirty_count_{0};
};

}  // namespace reach
