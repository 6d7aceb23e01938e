#include "storage/buffer_pool.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>

#include "common/spec.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "storage/slotted_page.h"
#include "testing/fault_points.h"
#include "testing/fault_registry.h"

namespace reach {

namespace {

struct PoolMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* evict_writebacks;
  obs::Gauge* hit_rate;
  obs::Gauge* dirty_ratio;
  obs::Histogram* shard_hit_rate;
  obs::Histogram* lock_wait_ns;

  static const PoolMetrics& Get() {
    static const PoolMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
      return PoolMetrics{reg.counter(obs::kBufHit),
                         reg.counter(obs::kBufMiss),
                         reg.counter(obs::kBufEvictWriteback),
                         reg.gauge(obs::kBufHitRate),
                         reg.gauge(obs::kBufDirtyRatio),
                         reg.histogram(obs::kBufShardHitRate),
                         reg.histogram(obs::kBufShardLockWaitNs)};
    }();
    return m;
  }
};

constexpr size_t kNoFrame = ~size_t{0};

}  // namespace

Result<BufferPoolOptions> BufferPoolOptions::Parse(const char* spec) {
  BufferPoolOptions o;
  REACH_RETURN_IF_ERROR(ForEachSpecEntry(
      spec, [&o](const std::string& entry, const std::string& key,
                 const std::string& value) {
        if (key != "shards") {
          return Status::InvalidArgument("REACH_STORAGE: unknown setting '" +
                                         entry + "'");
        }
        uint64_t n = 0;
        if (!ParseSpecUnsigned(value, UINT32_MAX, &n)) {
          return Status::InvalidArgument(
              "REACH_STORAGE: malformed value in '" + entry + "'");
        }
        o.shards = static_cast<size_t>(n);
        return Status::OK();
      }));
  return o;
}

BufferPoolOptions BufferPoolOptions::FromEnv() {
  static const BufferPoolOptions parsed =
      Parse(std::getenv("REACH_STORAGE")).value_or(BufferPoolOptions{});
  return parsed;
}

size_t BufferPoolOptions::ResolveShards(size_t requested) {
  if (requested != 0) return requested;
  size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  // Nearest power of two (ties round up): 3 -> 4, 6 -> 8, 12 -> 16.
  size_t pow2 = 1;
  while (pow2 < hw) pow2 <<= 1;
  if (pow2 > hw && (pow2 - hw) > (hw - pow2 / 2)) pow2 >>= 1;
  return pow2;
}

BufferPool::BufferPool(DiskManager* disk, size_t pool_size, size_t shards)
    : disk_(disk) {
  if (pool_size == 0) pool_size = 1;
  if (shards == 0) shards = BufferPoolOptions::FromEnv().shards;
  shards = BufferPoolOptions::ResolveShards(shards);
  // More shards than frames would force the pool to grow past its budget
  // (every shard needs at least one frame or pages hashing to it could
  // never be cached); clamp instead so tiny eviction-stress pools keep
  // their exact capacity on any core count.
  if (shards > pool_size) shards = pool_size;
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    Shard& shard = *shards_.back();
    size_t slice = pool_size / shards + (s < pool_size % shards ? 1 : 0);
    shard.frames.reserve(slice);
    for (size_t i = 0; i < slice; ++i) {
      shard.frames.push_back(std::make_unique<Page>());
      shard.free_frames.push_back(slice - 1 - i);
    }
    // Fixed-capacity table at 2x the slice: at least half the buckets stay
    // empty-or-tombstone, so inserts always terminate and probe chains stay
    // short; tombstones are reclaimed by a same-size rebuild.
    size_t cap = 16;
    while (cap < slice * 2) cap <<= 1;
    shard.table = std::make_unique<std::atomic<uint64_t>[]>(cap);
    for (size_t b = 0; b < cap; ++b) {
      shard.table[b].store(kEmptyBucket, std::memory_order_relaxed);
    }
    shard.table_mask = cap - 1;
    shard.table_empties = cap;
    pool_size_ += slice;
  }
}

std::unique_lock<std::mutex> BufferPool::LockShard(Shard& shard) {
  std::unique_lock<std::mutex> lock(shard.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    const uint64_t start = obs::NowNanosIfEnabled();
    lock.lock();
    if (start != 0) {
      PoolMetrics::Get().lock_wait_ns->RecordAlways(obs::NowNanos() - start);
    }
  }
  return lock;
}

void BufferPool::NoteAccess(Shard& shard, bool hit) {
  if (hit) shard.window_hits.fetch_add(1, std::memory_order_relaxed);
  const uint64_t n =
      shard.window_accesses.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n >= kHitRateWindow) {
    // A racing access can slip between the exchange and the store; the
    // window is statistical, so a lost count is fine.
    const uint64_t wh = shard.window_hits.exchange(0, std::memory_order_relaxed);
    shard.window_accesses.store(0, std::memory_order_relaxed);
    const uint64_t pct = std::min<uint64_t>(100, wh * 100 / kHitRateWindow);
    PoolMetrics::Get().hit_rate->Set(static_cast<int64_t>(pct));
    PoolMetrics::Get().shard_hit_rate->Record(pct);
  }
  if (hit) {
    shard.hits.fetch_add(1, std::memory_order_relaxed);
    PoolMetrics::Get().hits->Inc();
  } else {
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    PoolMetrics::Get().misses->Inc();
  }
}

// -- Page table ---------------------------------------------------------------

uint64_t BufferPool::ProbeTable(const Shard& shard, PageId page_id,
                                size_t* bucket) const {
  const size_t mask = shard.table_mask;
  size_t idx = BucketIndex(page_id, mask);
  for (size_t n = 0; n <= mask; ++n) {
    const uint64_t e = shard.table[idx].load(std::memory_order_acquire);
    if (e == kEmptyBucket) return kEmptyBucket;
    if (e != kTombstone && EntryPage(e) == page_id) {
      *bucket = idx;
      return e;
    }
    idx = (idx + 1) & mask;
  }
  return kEmptyBucket;
}

void BufferPool::TableInsert(Shard& shard, PageId page_id, size_t frame) {
  if (shard.table_empties <= (shard.table_mask + 1) / 4) TableRebuild(shard);
  const size_t mask = shard.table_mask;
  size_t idx = BucketIndex(page_id, mask);
  size_t place = kNoFrame;
  for (;;) {
    const uint64_t e = shard.table[idx].load(std::memory_order_relaxed);
    if (e == kEmptyBucket) {
      if (place == kNoFrame) {
        place = idx;
        --shard.table_empties;
      }
      break;
    }
    // Reuse the first tombstone on the probe path; the chain up to the
    // terminating empty bucket stays intact for concurrent readers.
    if (e == kTombstone && place == kNoFrame) place = idx;
    idx = (idx + 1) & mask;
  }
  shard.table[place].store(PackEntry(page_id, frame),
                           std::memory_order_release);
}

void BufferPool::TableErase(Shard& shard, PageId page_id) {
  size_t bucket;
  if (ProbeTable(shard, page_id, &bucket) != kEmptyBucket) {
    // Tombstone, not empty: erasing mid-chain must not cut off entries that
    // probed past this bucket when they were inserted.
    shard.table[bucket].store(kTombstone, std::memory_order_release);
  }
}

void BufferPool::TableRebuild(Shard& shard) {
  // Same-capacity rebuild reclaiming tombstones (the frame count bounds the
  // live entries, so the table never needs to grow). Lock-free readers
  // racing this can see a transient empty bucket — a false miss that the
  // mutex path resolves — but never a false hit: an entry is only ever
  // republished with its unchanged (page, frame) pairing.
  const size_t cap = shard.table_mask + 1;
  std::vector<uint64_t> live;
  live.reserve(shard.frames.size());
  for (size_t b = 0; b < cap; ++b) {
    const uint64_t e = shard.table[b].load(std::memory_order_relaxed);
    if (e != kEmptyBucket && e != kTombstone) live.push_back(e);
    shard.table[b].store(kEmptyBucket, std::memory_order_release);
  }
  shard.table_empties = cap;
  for (const uint64_t e : live) {
    size_t idx = BucketIndex(EntryPage(e), shard.table_mask);
    while (shard.table[idx].load(std::memory_order_relaxed) != kEmptyBucket) {
      idx = (idx + 1) & shard.table_mask;
    }
    shard.table[idx].store(e, std::memory_order_release);
    --shard.table_empties;
  }
}

// -- Dirty accounting ---------------------------------------------------------

void BufferPool::MarkDirty(Page* page) {
  page->set_dirty(true);
  const size_t d = dirty_count_.fetch_add(1, std::memory_order_relaxed) + 1;
  PoolMetrics::Get().dirty_ratio->Set(
      static_cast<int64_t>(d * 100 / pool_size_));
}

void BufferPool::MarkClean(Page* page) {
  page->set_dirty(false);
  const size_t d = dirty_count_.fetch_sub(1, std::memory_order_relaxed) - 1;
  PoolMetrics::Get().dirty_ratio->Set(
      static_cast<int64_t>(d * 100 / pool_size_));
}

Status BufferPool::WriteBack(Page* page) {
  if (pre_write_hook_) {
    // ARIES write-ahead rule: the log must be durable up to the page's
    // pageLSN before the page image may reach disk. Non-slotted pages (the
    // meta page) carry no LSN, so they conservatively force the whole log.
    SlottedPage sp(page);
    Lsn page_lsn = sp.IsInitialized() ? sp.lsn() : kInvalidLsn;
    REACH_RETURN_IF_ERROR(pre_write_hook_(page_lsn));
  }
  REACH_RETURN_IF_ERROR(disk_->WritePage(page->page_id(), page->data()));
  MarkClean(page);
  return Status::OK();
}

// -- Replacement --------------------------------------------------------------

Result<size_t> BufferPool::GetVictimFrame(Shard& shard) {
  for (;;) {
    if (!shard.free_frames.empty()) {
      size_t frame = shard.free_frames.back();
      shard.free_frames.pop_back();
      Page* page = shard.frames[frame].get();
      // A lock-free reader that loaded a stale bucket can hold a transient
      // pin on a free-listed frame for the few instructions until its
      // re-verify fails; spin it out, then hold the frame latched.
      while (!page->TryLatchForEvict()) {
      }
      return frame;
    }
    // Approximate LRU: scan for the unpinned frame with the oldest access
    // tick. Clean victims are preferred — a dirty victim costs a log force
    // and a write under the shard mutex.
    size_t best_clean = kNoFrame, best_dirty = kNoFrame;
    uint64_t clean_tick = 0, dirty_tick = 0;
    for (size_t f = 0; f < shard.frames.size(); ++f) {
      Page* page = shard.frames[f].get();
      if (page->pin_count() != 0) continue;  // pinned, mid-fill, or latched
      const uint64_t tick = page->last_access();
      if (!page->dirty()) {
        if (best_clean == kNoFrame || tick < clean_tick) {
          best_clean = f;
          clean_tick = tick;
        }
      } else if (best_dirty == kNoFrame || tick < dirty_tick) {
        best_dirty = f;
        dirty_tick = tick;
      }
    }
    if (best_clean != kNoFrame) {
      Page* page = shard.frames[best_clean].get();
      // Latch can fail if a lock-free reader pinned between scan and here;
      // rescan rather than evict under a live pin.
      if (!page->TryLatchForEvict()) continue;
      TableErase(shard, page->page_id());
      return best_clean;
    }
    if (best_dirty != kNoFrame) {
      Page* page = shard.frames[best_dirty].get();
      if (!page->TryLatchForEvict()) continue;
      // Every evictable frame is dirty, so this miss pays for the log
      // force + write itself.
      Status st = REACH_FAULT_HIT(faults::kBufEvictWriteback);
      if (st.ok()) st = WriteBack(page);
      if (!st.ok()) {
        page->UnlatchTo(0);
        return st;
      }
      PoolMetrics::Get().evict_writebacks->Inc();
      TableErase(shard, page->page_id());
      return best_dirty;
    }
    return Status::Busy("all buffer frames pinned");
  }
}

// -- Public API ---------------------------------------------------------------

Page* BufferPool::TryFetchFast(Shard& shard, PageId page_id) {
  size_t bucket;
  const uint64_t entry = ProbeTable(shard, page_id, &bucket);
  if (entry == kEmptyBucket) return nullptr;
  Page* page = shard.frames[EntryFrame(entry)].get();
  if (!page->TryPin()) return nullptr;  // latched by an evictor
  // Order matters: io_pending before the bucket re-verify. The unwind paths
  // erase the bucket before clearing io_pending, so a reader that observes
  // io_pending == false for an unwound frame is guaranteed to observe the
  // erased bucket too. The re-verify itself is the ABA guard: the pin alone
  // cannot rule out having pinned a frame recycled between the probe and
  // the CAS (the evictor erases the bucket before reuse and republishes a
  // new entry only after unlatching).
  if (page->io_pending() ||
      shard.table[bucket].load(std::memory_order_acquire) != entry) {
    page->Unpin();
    return nullptr;
  }
  page->set_last_access(shard.tick.fetch_add(1, std::memory_order_relaxed) +
                        1);
  return page;
}

Result<Page*> BufferPool::FetchPage(PageId page_id) {
  REACH_FAULT_POINT(faults::kBufFetch);
  Shard& shard = ShardFor(page_id);
  // Lock-free hit fast path: no shard mutex on the hot read.
  if (Page* page = TryFetchFast(shard, page_id)) {
    NoteAccess(shard, true);
    return page;
  }
  auto lock = LockShard(shard);
  bool counted = false;
  for (;;) {
    size_t bucket;
    const uint64_t entry = ProbeTable(shard, page_id, &bucket);
    if (entry != kEmptyBucket) {
      Page* page = shard.frames[EntryFrame(entry)].get();
      // A frame mid-fill by ReadAhead is in the table but not yet readable;
      // wait for the batch to land, then re-probe (a failed fill removes it).
      if (page->io_pending()) {
        shard.io_cv.wait(lock);
        continue;
      }
      page->Pin();
      page->set_last_access(
          shard.tick.fetch_add(1, std::memory_order_relaxed) + 1);
      if (!counted) NoteAccess(shard, true);
      return page;
    }
    if (!counted) {
      NoteAccess(shard, false);
      counted = true;
    }
    REACH_ASSIGN_OR_RETURN(size_t frame, GetVictimFrame(shard));
    Page* page = shard.frames[frame].get();
    page->Reset();  // preserves the evict latch GetVictimFrame returned with
    if (Status st = disk_->ReadPage(page_id, page->data()); !st.ok()) {
      page->UnlatchTo(0);
      shard.free_frames.push_back(frame);  // return the frame on failed read
      return st;
    }
    page->set_page_id(page_id);
    page->set_last_access(shard.tick.fetch_add(1, std::memory_order_relaxed) +
                          1);
    // Publish order: table entry first (release — makes the filled bytes
    // visible to lock-free probers), then the unlatch that lets them pin.
    TableInsert(shard, page_id, frame);
    page->UnlatchTo(1);  // handed to the caller pinned
    return page;
  }
}

Result<Page*> BufferPool::NewPage() {
  // Allocation has its own lock inside the disk manager; taking the shard
  // lock only after the id is known keeps allocations of pages that hash to
  // different shards fully parallel.
  REACH_ASSIGN_OR_RETURN(PageId page_id, disk_->AllocatePage());
  Shard& shard = ShardFor(page_id);
  auto lock = LockShard(shard);
  REACH_ASSIGN_OR_RETURN(size_t frame, GetVictimFrame(shard));
  Page* page = shard.frames[frame].get();
  page->Reset();
  page->set_page_id(page_id);
  page->set_last_access(shard.tick.fetch_add(1, std::memory_order_relaxed) +
                        1);
  MarkDirty(page);
  TableInsert(shard, page_id, frame);
  page->UnlatchTo(1);
  return page;
}

Status BufferPool::UnpinPage(PageId page_id, bool dirty) {
  Shard& shard = ShardFor(page_id);
  if (!dirty) {
    // Lock-free clean unpin: the caller holds a pin, so the mapping cannot
    // change beneath us — only the atomic pin count is touched.
    size_t bucket;
    const uint64_t entry = ProbeTable(shard, page_id, &bucket);
    if (entry != kEmptyBucket) {
      Page* page = shard.frames[EntryFrame(entry)].get();
      if (page->pin_count() > 0) {
        page->Unpin();
        return Status::OK();
      }
    }
    // Fall through to the locked path for error reporting (and for probes
    // that false-missed against a concurrent table rebuild).
  }
  auto lock = LockShard(shard);
  size_t bucket;
  const uint64_t entry = ProbeTable(shard, page_id, &bucket);
  if (entry == kEmptyBucket) {
    return Status::NotFound("page not in pool: " + std::to_string(page_id));
  }
  Page* page = shard.frames[EntryFrame(entry)].get();
  if (page->pin_count() <= 0) {
    return Status::FailedPrecondition("unpin of unpinned page");
  }
  page->Unpin();
  if (dirty && !page->dirty()) MarkDirty(page);
  return Status::OK();
}

Status BufferPool::FlushPage(PageId page_id) {
  REACH_FAULT_POINT(faults::kBufFlushPage);
  Shard& shard = ShardFor(page_id);
  auto lock = LockShard(shard);
  size_t bucket;
  const uint64_t entry = ProbeTable(shard, page_id, &bucket);
  if (entry == kEmptyBucket) return Status::OK();  // not cached
  Page* page = shard.frames[EntryFrame(entry)].get();
  if (page->dirty()) {
    REACH_RETURN_IF_ERROR(WriteBack(page));
  }
  return Status::OK();
}

Status BufferPool::ReadAhead(const std::vector<PageId>& pages) {
  // Stage: reserve a pinned io_pending frame per absent page, so nothing can
  // evict or hand out the frame while the batch is in flight.
  std::vector<PageReadRequest> batch;
  std::vector<std::pair<Page*, size_t>> staged;
  batch.reserve(pages.size());
  const PageId limit = disk_->num_pages();
  for (PageId page_id : pages) {
    if (page_id >= limit) continue;
    Shard& shard = ShardFor(page_id);
    auto lock = LockShard(shard);
    size_t bucket;
    if (ProbeTable(shard, page_id, &bucket) != kEmptyBucket) {
      continue;  // resident or mid-fill
    }
    auto frame_or = GetVictimFrame(shard);
    if (!frame_or.ok()) continue;  // no evictable frame: FetchPage will read
    Page* page = shard.frames[*frame_or].get();
    page->Reset();
    page->set_page_id(page_id);
    page->set_io_pending(true);
    page->set_last_access(shard.tick.fetch_add(1, std::memory_order_relaxed) +
                          1);
    TableInsert(shard, page_id, *frame_or);
    page->UnlatchTo(1);  // the staged pin
    staged.emplace_back(page, *frame_or);
    batch.push_back(PageReadRequest{page_id, page->data()});
  }
  // One batched read — even when empty, so the disk.backend.* fault points
  // see every readahead pass.
  Status st = disk_->ReadPages(batch);
  // Publish: clear io_pending and wake waiters; on failure unwind the staged
  // frames so FetchPage retries synchronously instead of serving zeros.
  for (auto& [page, frame] : staged) {
    Shard& shard = ShardFor(page->page_id());
    auto lock = LockShard(shard);
    if (!st.ok()) {
      // Erase before clearing io_pending: a lock-free reader that sees
      // io_pending clear must also see the bucket gone (see TryFetchFast).
      TableErase(shard, page->page_id());
      page->set_io_pending(false);
      page->Unpin();
      shard.free_frames.push_back(frame);
    } else {
      page->set_io_pending(false);
      page->Unpin();
    }
    shard.io_cv.notify_all();
  }
  return st;
}

Status BufferPool::FlushAll() {
  REACH_FAULT_POINT(faults::kBufFlushAll);
  // Collect and pin every dirty frame so it stays resident after the shard
  // locks drop; the batched submission below needs the images in place.
  std::vector<std::pair<PageId, const char*>> batch;
  std::vector<Page*> pinned;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    auto lock = LockShard(shard);
    for (auto& frame : shard.frames) {
      Page* page = frame.get();
      if (page->page_id() == kInvalidPageId || !page->dirty()) continue;
      page->Pin();
      pinned.push_back(page);
      batch.emplace_back(page->page_id(), page->data());
    }
  }
  // One full log force covers every page in the batch (the per-page hook
  // would force up to each pageLSN individually).
  Status st;
  if (!batch.empty() && pre_write_hook_) st = pre_write_hook_(kInvalidLsn);
  // One batched write in page order. Issued even when empty so the
  // disk.backend.* fault points see every checkpoint.
  if (st.ok()) st = disk_->WritePages(std::move(batch));
  for (Page* page : pinned) {
    Shard& shard = ShardFor(page->page_id());
    auto lock = LockShard(shard);
    if (st.ok() && page->dirty()) MarkClean(page);
    page->Unpin();
  }
  return st;
}

// -- Statistics ---------------------------------------------------------------

uint64_t BufferPool::hit_count() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->hits.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t BufferPool::miss_count() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->misses.load(std::memory_order_relaxed);
  }
  return total;
}

double BufferPool::dirty_ratio() const {
  if (pool_size_ == 0) return 0.0;
  return static_cast<double>(dirty_count_.load(std::memory_order_relaxed)) /
         static_cast<double>(pool_size_);
}

}  // namespace reach
