#include "storage/buffer_pool.h"

#include <string>
#include <utility>

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
  obs::Gauge* dirty_ratio;
  obs::Histogram* lock_wait_ns;

  static const PoolMetrics& Get() {
    static const PoolMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
      return PoolMetrics{reg.counter(obs::kBufHit),
                         reg.counter(obs::kBufMiss),
                         reg.counter(obs::kBufEvictWriteback),
                         reg.gauge(obs::kBufDirtyRatio),
                         reg.histogram(obs::kBufLockWaitNs)};
    }();
    return m;
  }
};

constexpr size_t kNoFrame = ~size_t{0};

}  // namespace

BufferPool::BufferPool(DiskManager* disk, size_t pool_size)
    : disk_(disk), pool_size_(pool_size == 0 ? 1 : pool_size) {
  frames_.reserve(pool_size_);
  for (size_t i = 0; i < pool_size_; ++i) {
    frames_.push_back(std::make_unique<Page>());
    free_frames_.push_back(pool_size_ - 1 - i);
  }
  // Fixed-capacity table at 2x the frame count: at least half the buckets
  // stay empty-or-tombstone, so inserts always terminate and probe chains
  // stay short; tombstones are reclaimed by a same-size rebuild.
  size_t cap = 16;
  while (cap < pool_size_ * 2) cap <<= 1;
  table_ = std::make_unique<std::atomic<uint64_t>[]>(cap);
  for (size_t b = 0; b < cap; ++b) {
    table_[b].store(kEmptyBucket, std::memory_order_relaxed);
  }
  table_mask_ = cap - 1;
  table_empties_ = cap;
}

std::unique_lock<std::mutex> BufferPool::Lock() {
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock()) {
    const uint64_t start = obs::NowNanosIfEnabled();
    lock.lock();
    if (start != 0) {
      PoolMetrics::Get().lock_wait_ns->RecordAlways(obs::NowNanos() - start);
    }
  }
  return lock;
}

void BufferPool::NoteAccess(bool hit) {
  if (hit) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    PoolMetrics::Get().hits->Inc();
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    PoolMetrics::Get().misses->Inc();
  }
}

// -- Page table ---------------------------------------------------------------

uint64_t BufferPool::ProbeTable(PageId page_id, size_t* bucket) const {
  const size_t mask = table_mask_;
  size_t idx = BucketIndex(page_id, mask);
  for (size_t n = 0; n <= mask; ++n) {
    const uint64_t e = table_[idx].load(std::memory_order_acquire);
    if (e == kEmptyBucket) return kEmptyBucket;
    if (e != kTombstone && EntryPage(e) == page_id) {
      *bucket = idx;
      return e;
    }
    idx = (idx + 1) & mask;
  }
  return kEmptyBucket;
}

void BufferPool::TableInsert(PageId page_id, size_t frame) {
  if (table_empties_ <= (table_mask_ + 1) / 4) TableRebuild();
  const size_t mask = table_mask_;
  size_t idx = BucketIndex(page_id, mask);
  size_t place = kNoFrame;
  for (;;) {
    const uint64_t e = table_[idx].load(std::memory_order_relaxed);
    if (e == kEmptyBucket) {
      if (place == kNoFrame) {
        place = idx;
        --table_empties_;
      }
      break;
    }
    // Reuse the first tombstone on the probe path; the chain up to the
    // terminating empty bucket stays intact for concurrent readers.
    if (e == kTombstone && place == kNoFrame) place = idx;
    idx = (idx + 1) & mask;
  }
  table_[place].store(PackEntry(page_id, frame),
                           std::memory_order_release);
}

void BufferPool::TableErase(PageId page_id) {
  size_t bucket;
  if (ProbeTable(page_id, &bucket) != kEmptyBucket) {
    // Tombstone, not empty: erasing mid-chain must not cut off entries that
    // probed past this bucket when they were inserted.
    table_[bucket].store(kTombstone, std::memory_order_release);
  }
}

void BufferPool::TableRebuild() {
  // Same-capacity rebuild reclaiming tombstones (the frame count bounds the
  // live entries, so the table never needs to grow). Lock-free readers
  // racing this can see a transient empty bucket — a false miss that the
  // mutex path resolves — but never a false hit: an entry is only ever
  // republished with its unchanged (page, frame) pairing.
  const size_t cap = table_mask_ + 1;
  std::vector<uint64_t> live;
  live.reserve(frames_.size());
  for (size_t b = 0; b < cap; ++b) {
    const uint64_t e = table_[b].load(std::memory_order_relaxed);
    if (e != kEmptyBucket && e != kTombstone) live.push_back(e);
    table_[b].store(kEmptyBucket, std::memory_order_release);
  }
  table_empties_ = cap;
  for (const uint64_t e : live) {
    size_t idx = BucketIndex(EntryPage(e), table_mask_);
    while (table_[idx].load(std::memory_order_relaxed) != kEmptyBucket) {
      idx = (idx + 1) & table_mask_;
    }
    table_[idx].store(e, std::memory_order_release);
    --table_empties_;
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

Result<size_t> BufferPool::GetVictimFrame() {
  for (;;) {
    if (!free_frames_.empty()) {
      size_t frame = free_frames_.back();
      free_frames_.pop_back();
      Page* page = frames_[frame].get();
      // A lock-free reader that loaded a stale bucket can hold a transient
      // pin on a free-listed frame for the few instructions until its
      // re-verify fails; spin it out, then hold the frame latched.
      while (!page->TryLatchForEvict()) {
      }
      return frame;
    }
    // Approximate LRU: scan for the unpinned frame with the oldest access
    // tick. Clean victims are preferred — a dirty victim costs a log force
    // and a write under the pool mutex.
    size_t best_clean = kNoFrame, best_dirty = kNoFrame;
    uint64_t clean_tick = 0, dirty_tick = 0;
    for (size_t f = 0; f < frames_.size(); ++f) {
      Page* page = frames_[f].get();
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
      Page* page = frames_[best_clean].get();
      // Latch can fail if a lock-free reader pinned between scan and here;
      // rescan rather than evict under a live pin.
      if (!page->TryLatchForEvict()) continue;
      TableErase(page->page_id());
      return best_clean;
    }
    if (best_dirty != kNoFrame) {
      Page* page = frames_[best_dirty].get();
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
      TableErase(page->page_id());
      return best_dirty;
    }
    return Status::Busy("all buffer frames pinned");
  }
}

// -- Public API ---------------------------------------------------------------

Page* BufferPool::TryFetchFast(PageId page_id) {
  size_t bucket;
  const uint64_t entry = ProbeTable(page_id, &bucket);
  if (entry == kEmptyBucket) return nullptr;
  Page* page = frames_[EntryFrame(entry)].get();
  if (!page->TryPin()) return nullptr;  // latched by an evictor
  // Order matters: io_pending before the bucket re-verify. The unwind paths
  // erase the bucket before clearing io_pending, so a reader that observes
  // io_pending == false for an unwound frame is guaranteed to observe the
  // erased bucket too. The re-verify itself is the ABA guard: the pin alone
  // cannot rule out having pinned a frame recycled between the probe and
  // the CAS (the evictor erases the bucket before reuse and republishes a
  // new entry only after unlatching).
  if (page->io_pending() ||
      table_[bucket].load(std::memory_order_acquire) != entry) {
    page->Unpin();
    return nullptr;
  }
  Touch(page);
  return page;
}

Result<Page*> BufferPool::FetchPage(PageId page_id) {
  REACH_FAULT_POINT(faults::kBufFetch);
  // Lock-free hit fast path: no pool mutex on the hot read.
  if (Page* page = TryFetchFast(page_id)) {
    NoteAccess(true);
    return page;
  }
  auto lock = Lock();
  bool counted = false;
  for (;;) {
    size_t bucket;
    const uint64_t entry = ProbeTable(page_id, &bucket);
    if (entry != kEmptyBucket) {
      Page* page = frames_[EntryFrame(entry)].get();
      // A frame mid-fill by ReadAhead is in the table but not yet readable;
      // wait for the batch to land, then re-probe (a failed fill removes it).
      if (page->io_pending()) {
        io_cv_.wait(lock);
        continue;
      }
      page->Pin();
      Touch(page);
      if (!counted) NoteAccess(true);
      return page;
    }
    if (!counted) {
      NoteAccess(false);
      counted = true;
    }
    REACH_ASSIGN_OR_RETURN(size_t frame, GetVictimFrame());
    Page* page = frames_[frame].get();
    page->Reset();  // preserves the evict latch GetVictimFrame returned with
    if (Status st = disk_->ReadPage(page_id, page->data()); !st.ok()) {
      page->UnlatchTo(0);
      free_frames_.push_back(frame);  // return the frame on failed read
      return st;
    }
    page->set_page_id(page_id);
    Touch(page);
    // Publish order: table entry first (release — makes the filled bytes
    // visible to lock-free probers), then the unlatch that lets them pin.
    TableInsert(page_id, frame);
    page->UnlatchTo(1);  // handed to the caller pinned
    return page;
  }
}

Result<Page*> BufferPool::NewPage() {
  // Allocation has its own lock inside the disk manager; the pool mutex is
  // taken only once the id is known.
  REACH_ASSIGN_OR_RETURN(PageId page_id, disk_->AllocatePage());
  auto lock = Lock();
  REACH_ASSIGN_OR_RETURN(size_t frame, GetVictimFrame());
  Page* page = frames_[frame].get();
  page->Reset();
  page->set_page_id(page_id);
  Touch(page);
  MarkDirty(page);
  TableInsert(page_id, frame);
  page->UnlatchTo(1);
  return page;
}

Status BufferPool::UnpinPage(PageId page_id, bool dirty) {
  if (!dirty) {
    // Lock-free clean unpin: the caller holds a pin, so the mapping cannot
    // change beneath us — only the atomic pin count is touched.
    size_t bucket;
    const uint64_t entry = ProbeTable(page_id, &bucket);
    if (entry != kEmptyBucket) {
      Page* page = frames_[EntryFrame(entry)].get();
      if (page->pin_count() > 0) {
        page->Unpin();
        return Status::OK();
      }
    }
    // Fall through to the locked path for error reporting (and for probes
    // that false-missed against a concurrent table rebuild).
  }
  auto lock = Lock();
  size_t bucket;
  const uint64_t entry = ProbeTable(page_id, &bucket);
  if (entry == kEmptyBucket) {
    return Status::NotFound("page not in pool: " + std::to_string(page_id));
  }
  Page* page = frames_[EntryFrame(entry)].get();
  if (page->pin_count() <= 0) {
    return Status::FailedPrecondition("unpin of unpinned page");
  }
  page->Unpin();
  if (dirty && !page->dirty()) MarkDirty(page);
  return Status::OK();
}

Status BufferPool::FlushPage(PageId page_id) {
  REACH_FAULT_POINT(faults::kBufFlushPage);
  auto lock = Lock();
  size_t bucket;
  const uint64_t entry = ProbeTable(page_id, &bucket);
  if (entry == kEmptyBucket) return Status::OK();  // not cached
  Page* page = frames_[EntryFrame(entry)].get();
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
    // Locked per page: a victim writeback must not stall other misses for
    // the whole window.
    auto lock = Lock();
    size_t bucket;
    if (ProbeTable(page_id, &bucket) != kEmptyBucket) {
      continue;  // resident or mid-fill
    }
    auto frame_or = GetVictimFrame();
    if (!frame_or.ok()) continue;  // no evictable frame: FetchPage will read
    Page* page = frames_[*frame_or].get();
    page->Reset();
    page->set_page_id(page_id);
    page->set_io_pending(true);
    Touch(page);
    TableInsert(page_id, *frame_or);
    page->UnlatchTo(1);  // the staged pin
    staged.emplace_back(page, *frame_or);
    batch.push_back(PageReadRequest{page_id, page->data()});
  }
  // One batched read — even when empty, so the disk.backend.* fault points
  // see every readahead pass.
  Status st = disk_->ReadPages(batch);
  // Publish: clear io_pending and wake waiters; on failure unwind the staged
  // frames so FetchPage retries synchronously instead of serving zeros.
  auto lock = Lock();
  for (auto& [page, frame] : staged) {
    if (!st.ok()) {
      // Erase before clearing io_pending: a lock-free reader that sees
      // io_pending clear must also see the bucket gone (see TryFetchFast).
      TableErase(page->page_id());
      free_frames_.push_back(frame);
    }
    page->set_io_pending(false);
    page->Unpin();
  }
  if (!staged.empty()) io_cv_.notify_all();
  return st;
}

Status BufferPool::FlushAll() {
  REACH_FAULT_POINT(faults::kBufFlushAll);
  // Collect and pin every dirty frame so it stays resident after the pool
  // lock drops; the batched submission below needs the images in place.
  std::vector<std::pair<PageId, const char*>> batch;
  std::vector<Page*> pinned;
  {
    auto lock = Lock();
    for (auto& frame : frames_) {
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
  auto lock = Lock();
  for (Page* page : pinned) {
    if (st.ok() && page->dirty()) MarkClean(page);
    page->Unpin();
  }
  return st;
}

double BufferPool::dirty_ratio() const {
  return static_cast<double>(dirty_count_.load(std::memory_order_relaxed)) /
         static_cast<double>(pool_size_);
}

}  // namespace reach
