// Buffer pool: fixed set of in-memory frames fronting the DiskManager,
// with approximate-LRU replacement and pin-count protection.
//
// The pool is partitioned into N independent shards keyed by
// `page_id % N`, each with its own mutex, page table, and slice of the
// frame budget. N defaults to the nearest power of two to the hardware
// concurrency and is overridable via the REACH_STORAGE environment
// variable (`shards=<N>`, grammar mirroring REACH_WAL).
//
// Lock-free lookup keeps the hit path off the shard mutex
// (docs/STORAGE.md): each shard's page table is an open-addressing array of
// atomic<uint64_t> buckets packing (page_id, frame_idx). A FetchPage hit
// resolves with an acquire probe, a pin CAS, and a bucket re-verify; the
// shard mutex is taken only on miss, eviction, or a table rebuild.
// Eviction prefers clean victims; a dirty victim is written synchronously
// by the evicting thread.
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

/// Storage tuning knobs. Defaults come from the REACH_STORAGE environment
/// variable (entries separated by ',' or ';'): "shards=<N>" sets the buffer
/// pool shard count (0 = auto: nearest power of two to the hardware
/// concurrency).
struct BufferPoolOptions {
  size_t shards = 0;  // 0 = auto

  /// REACH_STORAGE parsed once. A spec that Parse rejects yields the
  /// defaults here; StorageManager::Open reports it instead of opening.
  static BufferPoolOptions FromEnv();
  /// Parse a REACH_STORAGE spec string. An unknown key or a malformed value
  /// is InvalidArgument naming the entry.
  static Result<BufferPoolOptions> Parse(const char* spec);
  /// Resolve a requested shard count: 0 becomes the auto default.
  static size_t ResolveShards(size_t requested);
};

class BufferPool {
 public:
  /// `shards` == 0 defers to REACH_STORAGE / the auto default. The frame
  /// budget is sliced evenly across shards; the shard count is clamped to
  /// `pool_size` so the pool never exceeds its frame budget.
  BufferPool(DiskManager* disk, size_t pool_size, size_t shards = 0);

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
  /// collected and pinned shard by shard, the log is forced once, and the
  /// batch goes down in page order (DiskManager::WritePages). Caller must
  /// guarantee no concurrent mutators (the documented Checkpoint
  /// precondition).
  Status FlushAll();

  size_t pool_size() const { return pool_size_; }
  size_t shard_count() const { return shards_.size(); }
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

  /// Statistics for benchmarks (summed over shards).
  uint64_t hit_count() const;
  uint64_t miss_count() const;

  /// Fraction of frames currently dirty (0.0 .. 1.0).
  double dirty_ratio() const;

 private:
  // One independent partition of the pool. Heap-allocated and
  // cache-line-aligned so neighbouring shards' mutexes never share a line.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    // Signalled when a ReadAhead fill completes (io_pending cleared) so
    // waiting FetchPage callers can stop waiting.
    std::condition_variable io_cv;
    std::vector<std::unique_ptr<Page>> frames;
    // Open-addressing page table: each bucket is kEmptyBucket, kTombstone,
    // or (page_id << 32 | frame_idx). Lock-free readers probe with acquire
    // loads; all writes (insert/erase/rebuild) happen under `mu`. The
    // capacity is fixed at 2x the frame count, so "resize" is a same-size
    // rebuild that reclaims tombstones when empties run low — concurrent
    // readers may see a transient false miss and retry under the mutex,
    // never a false hit.
    std::unique_ptr<std::atomic<uint64_t>[]> table;
    size_t table_mask = 0;
    size_t table_empties = 0;           // guarded by mu
    std::vector<size_t> free_frames;    // guarded by mu
    std::atomic<uint64_t> tick{0};      // approximate-LRU access clock
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    // Sliding window feeding the hit-rate metrics: roughly every
    // kHitRateWindow accesses the shard publishes its hit percentage
    // (gauge = last completed window anywhere, histogram = per-shard
    // distribution). Lock-free counters: a window boundary racing another
    // access can lose a count — the metric is statistical, not exact.
    std::atomic<uint64_t> window_hits{0};
    std::atomic<uint64_t> window_accesses{0};
  };
  static constexpr uint64_t kHitRateWindow = 1024;

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
    // Fibonacci hash on the high bits: page ids within one shard share
    // their low bits (page % shard_count == shard index).
    return static_cast<size_t>(
               (static_cast<uint64_t>(page_id) * 0x9E3779B97F4A7C15ull) >>
               32) &
           mask;
  }

  Shard& ShardFor(PageId page_id) {
    return *shards_[page_id % shards_.size()];
  }

  /// Lock a shard, recording time spent blocked on a contended mutex into
  /// the storage.bufferpool.shard.lock_wait_ns histogram.
  std::unique_lock<std::mutex> LockShard(Shard& shard);

  /// Lock-free hit attempt: probe, pin CAS, io_pending check, bucket
  /// re-verify (in that order — the verify must be the last load so a
  /// completed unwind is never half-observed). Returns nullptr on miss or
  /// any race; the caller falls back to the locked path.
  Page* TryFetchFast(Shard& shard, PageId page_id);

  /// Probe the table for `page_id`. Safe lock-free and under `mu`. Returns
  /// the packed entry and sets `*bucket`, or kEmptyBucket when absent.
  uint64_t ProbeTable(const Shard& shard, PageId page_id,
                      size_t* bucket) const;
  // Table mutation, caller holds `mu`.
  void TableInsert(Shard& shard, PageId page_id, size_t frame);
  void TableErase(Shard& shard, PageId page_id);
  void TableRebuild(Shard& shard);

  /// Find a reusable frame (free list first, then the least-recently-used
  /// unpinned victim). Prefers clean victims; a dirty victim is written
  /// synchronously. The frame is returned latched (pin_count ==
  /// kEvictLatch) and absent from the table; the caller fills it, publishes
  /// the new table entry, and unlatches. Caller holds `shard.mu`.
  Result<size_t> GetVictimFrame(Shard& shard);

  /// Write one dirty frame back to disk. Caller holds `shard.mu`; the frame
  /// must not be concurrently mutable (latched, or pinned by the caller
  /// with no other writers).
  Status WriteBack(Page* page);

  /// Dirty-bit transitions with pool-wide accounting (dirty_count_ + the
  /// dirty-ratio gauge). Caller holds the owning shard's `mu`.
  void MarkDirty(Page* page);
  void MarkClean(Page* page);

  /// Hit/miss bookkeeping for one access (lock-free).
  void NoteAccess(Shard& shard, bool hit);

  DiskManager* disk_;
  size_t pool_size_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  PreWriteHook pre_write_hook_;
  std::atomic<size_t> dirty_count_{0};
};

}  // namespace reach
