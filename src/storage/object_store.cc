#include "storage/object_store.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace reach {

namespace {

/// Pin + wrap a page; unpin in the destructor.
class PageGuard {
 public:
  PageGuard(BufferPool* pool, Page* page) : pool_(pool), page_(page) {}
  ~PageGuard() {
    if (page_ != nullptr) {
      pool_->UnpinPage(page_->page_id(), dirty_);
    }
  }
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

  Page* get() { return page_; }
  void MarkDirty() { dirty_ = true; }

 private:
  BufferPool* pool_;
  Page* page_;
  bool dirty_ = false;
};

WalCellImage SnapshotCell(const SlottedPage& sp, SlotId slot) {
  WalCellImage img;
  std::string payload;
  SlotFlag flag;
  Status st = sp.Read(slot, &payload, &flag);
  if (st.ok()) {
    img.flag = static_cast<uint16_t>(flag);
    img.bytes = std::move(payload);
  } else {
    img.flag = static_cast<uint16_t>(SlotFlag::kFree);
  }
  auto gen = sp.Generation(slot);
  img.generation = gen.ok() ? gen.value() : 0;
  return img;
}

}  // namespace

ObjectStore::ObjectStore(BufferPool* pool, Wal* wal, PageId first_data_page)
    : pool_(pool), wal_(wal), first_data_page_(first_data_page) {}

Status ObjectStore::Bootstrap() {
  std::unique_lock<std::shared_mutex> lock(op_mu_);
  {
    std::lock_guard<std::mutex> flock(free_mu_);
    free_space_.clear();
    by_space_.clear();
  }
  // The disk manager knows how many pages exist; scan the data range in
  // readahead-sized chunks so the cold pass goes down as batched backend
  // submissions instead of one synchronous read per page.
  const PageId end = pool_->disk_pages();
  for (PageId base = first_data_page_; base < end;
       base += kScanReadAheadPages) {
    const PageId stop =
        std::min<PageId>(end, base + kScanReadAheadPages);
    std::vector<PageId> chunk;
    chunk.reserve(stop - base);
    for (PageId q = base; q < stop; ++q) chunk.push_back(q);
    REACH_RETURN_IF_ERROR(pool_->ReadAhead(chunk));
    for (PageId p = base; p < stop; ++p) {
      REACH_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(p));
      PageGuard guard(pool_, page);
      SlottedPage sp(page);
      if (sp.IsInitialized()) {
        NoteFreeSpace(p, sp);
      }
    }
  }
  return Status::OK();
}

Status ObjectStore::LogPhysical(TxnId txn, SlottedPage* sp, PageId page,
                                SlotId slot, const WalCellImage& before,
                                const WalCellImage& after) {
  WalRecord rec;
  rec.type = WalRecordType::kPhysical;
  rec.txn = txn;
  rec.page = page;
  rec.slot = slot;
  rec.before = before;
  rec.after = after;
  auto lsn = wal_->Append(std::move(rec));
  if (!lsn.ok()) return lsn.status();
  if (sp) sp->set_lsn(*lsn);
  if (mutation_listener_) mutation_listener_(txn, page, slot, before);
  return Status::OK();
}

void ObjectStore::NoteFreeSpace(PageId page, const SlottedPage& sp) {
  const size_t space = sp.FreeSpaceForInsert();
  std::lock_guard<std::mutex> lock(free_mu_);
  auto [it, inserted] = free_space_.try_emplace(page, space);
  if (!inserted) {
    if (it->second == space) return;
    by_space_.erase({it->second, page});
    it->second = space;
  }
  by_space_.emplace(space, page);
}

Result<PageId> ObjectStore::PageWithSpace(size_t need) {
  {
    std::lock_guard<std::mutex> lock(free_mu_);
    auto it = by_space_.lower_bound({need, 0});
    if (it != by_space_.end()) return it->second;
  }
  REACH_ASSIGN_OR_RETURN(Page * page, pool_->NewPage());
  PageGuard guard(pool_, page);
  guard.MarkDirty();
  SlottedPage sp(page);
  sp.Init();
  PageId id = page->page_id();
  if (id < first_data_page_) {
    // Reserved page numbers are claimed by the storage manager before any
    // object traffic, so this indicates a bootstrapping bug.
    return Status::Internal("data page allocated in reserved range");
  }
  NoteFreeSpace(id, sp);
  return id;
}

Result<Oid> ObjectStore::InsertCell(TxnId txn, std::string_view payload,
                                    SlotFlag flag) {
  if (payload.size() > kMaxCellBytes) {
    return Status::InvalidArgument("cell payload too large");
  }
  REACH_ASSIGN_OR_RETURN(PageId page_id,
                         PageWithSpace(payload.size() + kMinCellSlack));
  return InsertCellAt(txn, page_id, payload, flag);
}

Result<Oid> ObjectStore::InsertCellAt(TxnId txn, PageId page_id,
                                      std::string_view payload,
                                      SlotFlag flag) {
  REACH_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(page_id));
  PageGuard guard(pool_, page);
  SlottedPage sp(page);
  auto slot = sp.Insert(payload.data(), payload.size(), flag);
  if (!slot.ok()) {
    // A concurrent fast-path insert may have consumed the space this page
    // advertised; refresh the entry so a retry picks elsewhere.
    if (slot.status().IsOutOfRange()) NoteFreeSpace(page_id, sp);
    return slot.status();
  }
  guard.MarkDirty();
  REACH_ASSIGN_OR_RETURN(uint16_t gen, sp.Generation(slot.value()));

  WalCellImage before;
  before.flag = static_cast<uint16_t>(SlotFlag::kFree);
  before.generation = static_cast<uint16_t>(gen - 1);
  WalCellImage after;
  after.flag = static_cast<uint16_t>(flag);
  after.generation = gen;
  after.bytes.assign(payload.data(), payload.size());
  REACH_RETURN_IF_ERROR(
      LogPhysical(txn, &sp, page_id, slot.value(), before, after));

  NoteFreeSpace(page_id, sp);
  Oid oid;
  oid.page = page_id;
  oid.slot = slot.value();
  oid.generation = gen;
  return oid;
}

Status ObjectStore::DeleteCell(TxnId txn, const Oid& oid) {
  REACH_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(oid.page));
  PageGuard guard(pool_, page);
  SlottedPage sp(page);
  if (!sp.Matches(oid.slot, oid.generation)) {
    return Status::NotFound("dangling oid " + oid.ToString());
  }
  WalCellImage before = SnapshotCell(sp, oid.slot);
  REACH_RETURN_IF_ERROR(sp.Delete(oid.slot));
  guard.MarkDirty();
  WalCellImage after;
  after.flag = static_cast<uint16_t>(SlotFlag::kFree);
  after.generation = oid.generation;
  REACH_RETURN_IF_ERROR(LogPhysical(txn, &sp, oid.page, oid.slot, before, after));
  NoteFreeSpace(oid.page, sp);
  return Status::OK();
}

Status ObjectStore::UpdateCellInPlace(TxnId txn, const Oid& oid,
                                      std::string_view payload,
                                      SlotFlag new_flag) {
  REACH_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(oid.page));
  PageGuard guard(pool_, page);
  SlottedPage sp(page);
  if (!sp.Matches(oid.slot, oid.generation)) {
    return Status::NotFound("dangling oid " + oid.ToString());
  }
  WalCellImage before = SnapshotCell(sp, oid.slot);
  REACH_RETURN_IF_ERROR(sp.Update(oid.slot, payload.data(), payload.size()));
  REACH_RETURN_IF_ERROR(sp.SetFlag(oid.slot, new_flag));
  guard.MarkDirty();
  WalCellImage after;
  after.flag = static_cast<uint16_t>(new_flag);
  after.generation = oid.generation;
  after.bytes.assign(payload.data(), payload.size());
  REACH_RETURN_IF_ERROR(LogPhysical(txn, &sp, oid.page, oid.slot, before, after));
  NoteFreeSpace(oid.page, sp);
  return Status::OK();
}

Status ObjectStore::ReadCell(const Oid& oid, std::string* payload,
                             SlotFlag* flag) {
  REACH_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(oid.page));
  PageGuard guard(pool_, page);
  SlottedPage sp(page);
  if (!sp.Matches(oid.slot, oid.generation)) {
    return Status::NotFound("dangling oid " + oid.ToString());
  }
  return sp.Read(oid.slot, payload, flag);
}

Status ObjectStore::ReadCellShared(const Oid& oid, std::string* payload,
                                   SlotFlag* flag) {
  std::shared_lock<std::shared_mutex> plock(PageLockFor(oid.page));
  return ReadCell(oid, payload, flag);
}

Result<std::string> ObjectStore::BuildBody(TxnId txn, std::string_view bytes) {
  if (bytes.size() + 1 <= kMaxCellBytes) {
    std::string payload;
    payload.reserve(bytes.size() + 1);
    payload.push_back(kWhole);
    payload.append(bytes.data(), bytes.size());
    return payload;
  }
  // Large object: head chunk stays with the home cell, the rest is chained
  // across continuation segments, written tail-first so each segment knows
  // its successor.
  size_t head_len = std::min(bytes.size(), kHeadChunk);
  std::string_view rest = bytes.substr(head_len);
  std::vector<std::string_view> chunks;
  for (size_t pos = 0; pos < rest.size(); pos += kContChunk) {
    chunks.push_back(rest.substr(pos, kContChunk));
  }
  Oid next = kInvalidOid;
  for (auto it = chunks.rbegin(); it != chunks.rend(); ++it) {
    std::string seg;
    seg.reserve(1 + SlottedPage::kOidEncodedSize + it->size());
    seg.push_back(kCont);
    char oid_buf[SlottedPage::kOidEncodedSize];
    SlottedPage::EncodeOid(next, oid_buf);
    seg.append(oid_buf, SlottedPage::kOidEncodedSize);
    seg.append(it->data(), it->size());
    REACH_ASSIGN_OR_RETURN(next, InsertCell(txn, seg, SlotFlag::kMoved));
  }
  std::string head;
  head.reserve(kEnvelopeMax + head_len);
  head.push_back(kHead);
  char oid_buf[SlottedPage::kOidEncodedSize];
  SlottedPage::EncodeOid(next, oid_buf);
  head.append(oid_buf, SlottedPage::kOidEncodedSize);
  uint32_t total = static_cast<uint32_t>(bytes.size());
  head.append(reinterpret_cast<const char*>(&total), sizeof(total));
  head.append(bytes.data(), head_len);
  return head;
}

Status ObjectStore::FreeChain(TxnId txn, const std::string& head_payload) {
  if (head_payload.empty() || head_payload[0] != kHead) return Status::OK();
  Oid next =
      SlottedPage::DecodeOid(head_payload.data() + 1);
  while (next.valid()) {
    std::string seg;
    SlotFlag flag;
    REACH_RETURN_IF_ERROR(ReadCell(next, &seg, &flag));
    if (seg.empty() || seg[0] != kCont) {
      return Status::Corruption("broken segment chain at " + next.ToString());
    }
    Oid following = SlottedPage::DecodeOid(seg.data() + 1);
    REACH_RETURN_IF_ERROR(DeleteCell(txn, next));
    next = following;
  }
  return Status::OK();
}

Result<std::string> ObjectStore::AssembleBody(const std::string& head_payload) {
  if (head_payload.empty()) return Status::Corruption("empty cell payload");
  if (head_payload[0] == kWhole) {
    return head_payload.substr(1);
  }
  if (head_payload[0] != kHead) {
    return Status::Corruption("unexpected envelope kind");
  }
  size_t pos = 1;
  Oid next = SlottedPage::DecodeOid(head_payload.data() + pos);
  pos += SlottedPage::kOidEncodedSize;
  uint32_t total = 0;
  std::memcpy(&total, head_payload.data() + pos, sizeof(total));
  pos += sizeof(total);
  std::string out;
  out.reserve(total);
  out.append(head_payload.data() + pos, head_payload.size() - pos);
  while (next.valid()) {
    std::string seg;
    SlotFlag flag;
    // Reader path (only Read calls this): take each segment's page stripe.
    REACH_RETURN_IF_ERROR(ReadCellShared(next, &seg, &flag));
    if (seg.empty() || seg[0] != kCont) {
      return Status::Corruption("broken segment chain at " + next.ToString());
    }
    next = SlottedPage::DecodeOid(seg.data() + 1);
    out.append(seg.data() + 1 + SlottedPage::kOidEncodedSize,
               seg.size() - 1 - SlottedPage::kOidEncodedSize);
  }
  if (out.size() != total) {
    return Status::Corruption("segment chain length mismatch");
  }
  return out;
}

Result<Oid> ObjectStore::Insert(TxnId txn, std::string_view bytes) {
  if (bytes.size() + 1 <= kMaxCellBytes) {
    // Single-page fast path: an unsegmented object touches exactly one data
    // page, so a shared op lock plus that page's stripe suffices — readers
    // and inserts on other pages keep flowing. The space a page advertises
    // can be stolen between choosing it and locking it, hence the bounded
    // retry; persistent contention falls through to the exclusive path.
    std::shared_lock<std::shared_mutex> lock(op_mu_);
    std::string payload;
    payload.reserve(bytes.size() + 1);
    payload.push_back(kWhole);
    payload.append(bytes.data(), bytes.size());
    for (int attempt = 0; attempt < 8; ++attempt) {
      REACH_ASSIGN_OR_RETURN(PageId page_id,
                             PageWithSpace(payload.size() + kMinCellSlack));
      std::unique_lock<std::shared_mutex> plock(PageLockFor(page_id));
      auto oid = InsertCellAt(txn, page_id, payload, SlotFlag::kLive);
      if (oid.ok() || !oid.status().IsOutOfRange()) return oid;
    }
  }
  std::unique_lock<std::shared_mutex> lock(op_mu_);
  REACH_ASSIGN_OR_RETURN(std::string head, BuildBody(txn, bytes));
  return InsertCell(txn, head, SlotFlag::kLive);
}

Result<std::string> ObjectStore::Read(const Oid& oid) {
  std::shared_lock<std::shared_mutex> lock(op_mu_);
  std::string payload;
  SlotFlag flag;
  REACH_RETURN_IF_ERROR(ReadCellShared(oid, &payload, &flag));
  if (flag == SlotFlag::kForward) {
    Oid body = SlottedPage::DecodeOid(payload.data());
    REACH_RETURN_IF_ERROR(ReadCellShared(body, &payload, &flag));
    if (flag != SlotFlag::kMoved) {
      return Status::Corruption("forward target is not a moved body");
    }
  } else if (flag != SlotFlag::kLive) {
    return Status::NotFound("oid does not name an object home");
  }
  return AssembleBody(payload);
}

Status ObjectStore::Update(TxnId txn, const Oid& oid, std::string_view bytes) {
  if (bytes.size() + 1 <= kMaxCellBytes) {
    // Single-page fast path: a whole-object home cell updated in place
    // touches only oid.page. Forwarded, segmented, or no-longer-fitting
    // objects drop through to the exclusive multi-page path, which re-reads
    // from scratch (the optimistic check is advisory only).
    std::shared_lock<std::shared_mutex> lock(op_mu_);
    std::unique_lock<std::shared_mutex> plock(PageLockFor(oid.page));
    std::string home_payload;
    SlotFlag home_flag;
    REACH_RETURN_IF_ERROR(ReadCell(oid, &home_payload, &home_flag));
    if (home_flag == SlotFlag::kLive && !home_payload.empty() &&
        home_payload[0] == kWhole) {
      std::string head;
      head.reserve(bytes.size() + 1);
      head.push_back(kWhole);
      head.append(bytes.data(), bytes.size());
      Status st = UpdateCellInPlace(txn, oid, head, SlotFlag::kLive);
      if (st.ok() || !st.IsOutOfRange()) return st;
      // Doesn't fit in place any more: relocation is multi-page.
    }
  }
  std::unique_lock<std::shared_mutex> lock(op_mu_);
  std::string home_payload;
  SlotFlag home_flag;
  REACH_RETURN_IF_ERROR(ReadCell(oid, &home_payload, &home_flag));
  if (home_flag != SlotFlag::kLive && home_flag != SlotFlag::kForward) {
    return Status::NotFound("oid does not name an object home");
  }

  // Locate the body cell and free any old continuation chain first.
  Oid body_oid = oid;
  std::string body_payload = home_payload;
  if (home_flag == SlotFlag::kForward) {
    body_oid = SlottedPage::DecodeOid(home_payload.data());
    SlotFlag body_flag;
    REACH_RETURN_IF_ERROR(ReadCell(body_oid, &body_payload, &body_flag));
  }
  REACH_RETURN_IF_ERROR(FreeChain(txn, body_payload));

  REACH_ASSIGN_OR_RETURN(std::string head, BuildBody(txn, bytes));
  SlotFlag body_flag =
      (home_flag == SlotFlag::kLive) ? SlotFlag::kLive : SlotFlag::kMoved;

  // Try the current body cell in place.
  Status st = UpdateCellInPlace(txn, body_oid, head, body_flag);
  if (st.ok()) return Status::OK();
  if (!st.IsOutOfRange()) return st;

  // Relocate: insert the body elsewhere, repoint/convert the home cell.
  if (home_flag == SlotFlag::kForward) {
    REACH_RETURN_IF_ERROR(DeleteCell(txn, body_oid));
  }
  REACH_ASSIGN_OR_RETURN(Oid new_body, InsertCell(txn, head, SlotFlag::kMoved));
  char fwd[SlottedPage::kOidEncodedSize];
  SlottedPage::EncodeOid(new_body, fwd);
  return UpdateCellInPlace(txn, oid,
                           std::string_view(fwd, SlottedPage::kOidEncodedSize),
                           SlotFlag::kForward);
}

Status ObjectStore::Delete(TxnId txn, const Oid& oid) {
  {
    // Single-page fast path: deleting an unsegmented, unforwarded object
    // frees exactly one cell on oid.page.
    std::shared_lock<std::shared_mutex> lock(op_mu_);
    std::unique_lock<std::shared_mutex> plock(PageLockFor(oid.page));
    std::string payload;
    SlotFlag flag;
    REACH_RETURN_IF_ERROR(ReadCell(oid, &payload, &flag));
    if (flag == SlotFlag::kLive && !payload.empty() && payload[0] == kWhole) {
      return DeleteCell(txn, oid);
    }
    if (flag != SlotFlag::kLive && flag != SlotFlag::kForward) {
      return Status::NotFound("oid does not name an object home");
    }
    // Forwarded or segmented: multi-page, exclusive path below.
  }
  std::unique_lock<std::shared_mutex> lock(op_mu_);
  std::string payload;
  SlotFlag flag;
  REACH_RETURN_IF_ERROR(ReadCell(oid, &payload, &flag));
  if (flag == SlotFlag::kForward) {
    Oid body = SlottedPage::DecodeOid(payload.data());
    std::string body_payload;
    SlotFlag body_flag;
    REACH_RETURN_IF_ERROR(ReadCell(body, &body_payload, &body_flag));
    REACH_RETURN_IF_ERROR(FreeChain(txn, body_payload));
    REACH_RETURN_IF_ERROR(DeleteCell(txn, body));
  } else if (flag == SlotFlag::kLive) {
    REACH_RETURN_IF_ERROR(FreeChain(txn, payload));
  } else {
    return Status::NotFound("oid does not name an object home");
  }
  return DeleteCell(txn, oid);
}

bool ObjectStore::Exists(const Oid& oid) {
  std::shared_lock<std::shared_mutex> lock(op_mu_);
  std::string payload;
  SlotFlag flag;
  Status st = ReadCellShared(oid, &payload, &flag);
  return st.ok() && (flag == SlotFlag::kLive || flag == SlotFlag::kForward);
}

Result<std::vector<Oid>> ObjectStore::ScanAll() {
  std::shared_lock<std::shared_mutex> lock(op_mu_);
  // Snapshot the data pages (the map keeps them in page order), then visit
  // them without holding the free-space mutex.
  std::vector<PageId> pages;
  {
    std::lock_guard<std::mutex> flock(free_mu_);
    pages.reserve(free_space_.size());
    for (const auto& [page_id, _] : free_space_) pages.push_back(page_id);
  }
  std::vector<Oid> out;
  for (size_t i = 0; i < pages.size(); ++i) {
    if (i % kScanReadAheadPages == 0) {
      // Warm the next window in one batched backend submission; a cold scan
      // becomes ~N/32 submissions instead of N synchronous reads.
      std::vector<PageId> window(
          pages.begin() + i,
          pages.begin() + std::min(pages.size(), i + kScanReadAheadPages));
      REACH_RETURN_IF_ERROR(pool_->ReadAhead(window));
    }
    const PageId page_id = pages[i];
    std::shared_lock<std::shared_mutex> plock(PageLockFor(page_id));
    REACH_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(page_id));
    PageGuard guard(pool_, page);
    SlottedPage sp(page);
    for (const auto& [slot, flag] : sp.OccupiedSlots()) {
      if (flag == SlotFlag::kLive || flag == SlotFlag::kForward) {
        Oid oid;
        oid.page = page_id;
        oid.slot = slot;
        auto gen = sp.Generation(slot);
        if (!gen.ok()) return gen.status();
        oid.generation = gen.value();
        out.push_back(oid);
      }
    }
  }
  return out;
}

Status ObjectStore::ApplyImage(PageId page_id, SlotId slot,
                               const WalCellImage& img, Lsn lsn) {
  std::unique_lock<std::shared_mutex> lock(op_mu_);
  // Recovery may reference pages the (possibly truncated) data file does
  // not have yet; allocate up to the target page.
  for (;;) {
    auto page = pool_->FetchPage(page_id);
    if (page.ok()) {
      PageGuard guard(pool_, page.value());
      SlottedPage sp(page.value());
      if (!sp.IsInitialized()) sp.Init();
      // Conditional redo: a flushed page image already reflects every
      // record at or below its pageLSN. Re-applying them is not just
      // wasted work — replaying old history on top of a newer page can
      // transiently need more cell space than the page has.
      if (lsn != 0 && sp.lsn() >= lsn) return Status::OK();
      Status st;
      if (img.flag == static_cast<uint16_t>(SlotFlag::kFree)) {
        st = sp.FreeAt(slot, img.generation);
      } else {
        st = sp.PlaceAt(slot, img.generation, img.bytes.data(),
                        img.bytes.size(), static_cast<SlotFlag>(img.flag));
      }
      if (st.ok()) {
        if (lsn != 0) sp.set_lsn(lsn);
        guard.MarkDirty();
        NoteFreeSpace(page_id, sp);
      }
      return st;
    }
    if (!page.status().IsOutOfRange()) return page.status();
    auto fresh = pool_->NewPage();
    if (!fresh.ok()) return fresh.status();
    PageGuard guard(pool_, fresh.value());
    guard.MarkDirty();
    SlottedPage sp(fresh.value());
    sp.Init();
    if (fresh.value()->page_id() >= first_data_page_) {
      NoteFreeSpace(fresh.value()->page_id(), sp);
    }
  }
}

Status ObjectStore::ApplyImageLogged(TxnId txn, PageId page_id, SlotId slot,
                                     const WalCellImage& target) {
  std::unique_lock<std::shared_mutex> lock(op_mu_);
  REACH_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(page_id));
  PageGuard guard(pool_, page);
  SlottedPage sp(page);
  if (!sp.IsInitialized()) sp.Init();
  WalCellImage before = SnapshotCell(sp, slot);
  Status st;
  if (target.flag == static_cast<uint16_t>(SlotFlag::kFree)) {
    st = sp.FreeAt(slot, target.generation);
  } else {
    st = sp.PlaceAt(slot, target.generation, target.bytes.data(),
                    target.bytes.size(), static_cast<SlotFlag>(target.flag));
  }
  if (!st.ok()) return st;
  guard.MarkDirty();
  NoteFreeSpace(page_id, sp);
  return LogPhysical(txn, &sp, page_id, slot, before, target);
}

size_t ObjectStore::data_page_count() {
  std::shared_lock<std::shared_mutex> lock(op_mu_);
  std::lock_guard<std::mutex> flock(free_mu_);
  return free_space_.size();
}

}  // namespace reach
