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
    owned_.clear();
    withheld_.clear();
    withheld_by_.clear();
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
                                SlotId slot, WalCellImage before,
                                WalCellImage after) {
  WalRecord rec;
  rec.type = WalRecordType::kPhysical;
  rec.txn = txn;
  rec.page = page;
  rec.slot = slot;
  rec.before = std::move(before);
  rec.after = std::move(after);
  auto lsn = wal_->Append(rec);
  if (!lsn.ok()) return lsn.status();
  if (sp) sp->set_lsn(*lsn);
  if (mutation_listener_) mutation_listener_(txn, page, slot, rec.before);
  return Status::OK();
}

void ObjectStore::NoteFreeSpace(PageId page, const SlottedPage& sp) {
  const size_t space = sp.FreeSpaceForInsert();
  std::lock_guard<std::mutex> lock(free_mu_);
  // A page's owner is fixed once it is formatted, so the owner read at the
  // first note is the page's for good.
  auto [it, inserted] =
      free_space_.try_emplace(page, PageSpace{sp.owner(), space});
  PageSpace& entry = it->second;
  if (inserted) {
    std::vector<PageId>& pages = owned_[entry.owner];
    pages.insert(std::lower_bound(pages.begin(), pages.end(), page), page);
    by_space_.emplace(entry.owner, space, page);
    return;
  }
  if (entry.space == space) return;
  // Re-key the page's index node in place: no free and no allocation.
  auto node = by_space_.extract({entry.owner, entry.space, page});
  std::get<1>(node.value()) = space;
  by_space_.insert(std::move(node));
  entry.space = space;
}

void ObjectStore::WithholdPage(TxnId txn, PageId page) {
  std::lock_guard<std::mutex> lock(free_mu_);
  std::vector<TxnId>& txns = withheld_[page];
  if (std::find(txns.begin(), txns.end(), txn) != txns.end()) return;
  txns.push_back(txn);
  withheld_by_[txn].push_back(page);
}

bool ObjectStore::InsertableBy(TxnId txn, PageId page) const {
  auto it = withheld_.find(page);
  return it == withheld_.end() ||
         (it->second.size() == 1 && it->second[0] == txn);
}

void ObjectStore::ReleaseFreedSpace(TxnId txn) {
  std::lock_guard<std::mutex> lock(free_mu_);
  auto by = withheld_by_.find(txn);
  if (by == withheld_by_.end()) return;
  for (PageId page : by->second) {
    auto it = withheld_.find(page);
    std::erase(it->second, txn);
    if (it->second.empty()) withheld_.erase(it);
  }
  withheld_by_.erase(by);
}

Result<PageId> ObjectStore::PageWithSpace(TxnId txn, const Oid& owner,
                                          size_t need) {
  {
    std::lock_guard<std::mutex> lock(free_mu_);
    for (auto it = by_space_.lower_bound({owner, need, 0});
         it != by_space_.end() && std::get<0>(*it) == owner; ++it) {
      if (InsertableBy(txn, std::get<2>(*it))) return std::get<2>(*it);
    }
  }
  REACH_ASSIGN_OR_RETURN(Page * page, pool_->NewPage());
  PageGuard guard(pool_, page);
  guard.MarkDirty();
  PageId id = page->page_id();
  if (id < first_data_page_) {
    // Reserved page numbers are claimed by the storage manager before any
    // object traffic, so this indicates a bootstrapping bug.
    return Status::Internal("data page allocated in reserved range");
  }
  SlottedPage sp(page);
  sp.Init(owner);
  // The owner must survive a crash before the page is flushed: redo formats
  // the page from this record. If it cannot be logged the page is never
  // offered for inserts (a flushed copy still carries its owner).
  WalRecord rec;
  rec.type = WalRecordType::kPageFormat;
  rec.page = id;
  rec.owner = owner;
  REACH_ASSIGN_OR_RETURN(Lsn lsn, wal_->Append(std::move(rec)));
  sp.set_lsn(lsn);
  NoteFreeSpace(id, sp);
  return id;
}

Result<Oid> ObjectStore::InsertCell(TxnId txn, const Oid& owner,
                                    std::string_view payload, SlotFlag flag) {
  if (payload.size() > kMaxCellBytes) {
    return Status::InvalidArgument("cell payload too large");
  }
  REACH_ASSIGN_OR_RETURN(
      PageId page_id, PageWithSpace(txn, owner, payload.size() + kMinCellSlack));
  return InsertCellAt(txn, page_id, payload, flag);
}

Result<Oid> ObjectStore::InsertCellAt(TxnId txn, PageId page_id,
                                      std::string_view payload,
                                      SlotFlag flag) {
  {
    // A free-space map pick is advisory: the page may have been withheld
    // since. Callers hold its stripe, so no withholding delete is mid-way.
    std::lock_guard<std::mutex> lock(free_mu_);
    if (!InsertableBy(txn, page_id)) {
      return Status::OutOfRange("page holds space freed by another txn");
    }
  }
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
  REACH_RETURN_IF_ERROR(LogPhysical(txn, &sp, page_id, slot.value(),
                                    std::move(before), std::move(after)));

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
  REACH_RETURN_IF_ERROR(LogPhysical(txn, &sp, oid.page, oid.slot,
                                    std::move(before), std::move(after)));
  WithholdPage(txn, oid.page);
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
  const bool shrank = payload.size() < before.bytes.size();
  REACH_RETURN_IF_ERROR(LogPhysical(txn, &sp, oid.page, oid.slot,
                                    std::move(before), std::move(after)));
  if (shrank) WithholdPage(txn, oid.page);
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
    REACH_ASSIGN_OR_RETURN(
        next, InsertCell(txn, kInvalidOid, seg, SlotFlag::kMoved));
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

Result<std::string> ObjectStore::AssembleBody(std::string head_payload) {
  if (head_payload.empty()) return Status::Corruption("empty cell payload");
  if (head_payload[0] == kWhole) {
    head_payload.erase(0, 1);
    return head_payload;
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
    // Reader path (only ReadHeld calls this): take each segment's page
    // stripe.
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

Result<Oid> ObjectStore::Insert(TxnId txn, std::string_view bytes,
                                const Oid& owner) {
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
      REACH_ASSIGN_OR_RETURN(
          PageId page_id,
          PageWithSpace(txn, owner, payload.size() + kMinCellSlack));
      std::unique_lock<std::shared_mutex> plock(PageLockFor(page_id));
      auto oid = InsertCellAt(txn, page_id, payload, SlotFlag::kLive);
      if (oid.ok() || !oid.status().IsOutOfRange()) return oid;
    }
  }
  std::unique_lock<std::shared_mutex> lock(op_mu_);
  REACH_ASSIGN_OR_RETURN(std::string head, BuildBody(txn, bytes));
  return InsertCell(txn, owner, head, SlotFlag::kLive);
}

Result<std::string> ObjectStore::Read(const Oid& oid) {
  std::shared_lock<std::shared_mutex> lock(op_mu_);
  return ReadHeld(oid);
}

Result<std::string> ObjectStore::ReadHeld(const Oid& oid) {
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
  return AssembleBody(std::move(payload));
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
  REACH_ASSIGN_OR_RETURN(Oid new_body,
                         InsertCell(txn, kInvalidOid, head, SlotFlag::kMoved));
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
    REACH_RETURN_IF_ERROR(AppendHomes(pages[i], &out));
  }
  return out;
}

std::vector<PageId> ObjectStore::OwnedPages(const Oid& owner) {
  std::lock_guard<std::mutex> lock(free_mu_);
  auto it = owned_.find(owner);
  return it == owned_.end() ? std::vector<PageId>{} : it->second;
}

Oid ObjectStore::PageOwner(PageId page) {
  std::lock_guard<std::mutex> lock(free_mu_);
  auto it = free_space_.find(page);
  return it == free_space_.end() ? kInvalidOid : it->second.owner;
}

Status ObjectStore::AppendHomes(PageId page_id, std::vector<Oid>* out) {
  std::shared_lock<std::shared_mutex> lock(op_mu_);
  std::shared_lock<std::shared_mutex> plock(PageLockFor(page_id));
  REACH_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(page_id));
  PageGuard guard(pool_, page);
  SlottedPage sp(page);
  for (const auto& [slot, flag] : sp.OccupiedSlots()) {
    if (flag != SlotFlag::kLive && flag != SlotFlag::kForward) continue;
    REACH_ASSIGN_OR_RETURN(uint16_t gen, sp.Generation(slot));
    out->push_back(Oid{page_id, slot, gen});
  }
  return Status::OK();
}

Status ObjectStore::VisitHomes(PageId page_id, const HomeVisitor& visit) {
  std::shared_lock<std::shared_mutex> lock(op_mu_);
  SlotId next = 0;
  for (;;) {
    // A forwarded or segmented home ends a stripe hold: its body is read
    // after the release, and the walk resumes at the following slot.
    Oid indirect;
    {
      std::shared_lock<std::shared_mutex> plock(PageLockFor(page_id));
      REACH_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(page_id));
      PageGuard guard(pool_, page);
      SlottedPage sp(page);
      for (; !indirect.valid() && next < sp.slot_count(); ++next) {
        SlotFlag flag;
        std::string_view payload = sp.View(next, &flag);
        if (flag != SlotFlag::kLive && flag != SlotFlag::kForward) continue;
        REACH_ASSIGN_OR_RETURN(uint16_t gen, sp.Generation(next));
        Oid oid{page_id, next, gen};
        if (flag == SlotFlag::kLive && !payload.empty() &&
            payload[0] == kWhole) {
          REACH_RETURN_IF_ERROR(visit(oid, payload.substr(1)));
        } else {
          indirect = oid;
        }
      }
    }
    if (!indirect.valid()) return Status::OK();
    REACH_ASSIGN_OR_RETURN(std::string bytes, ReadHeld(indirect));
    REACH_RETURN_IF_ERROR(visit(indirect, bytes));
  }
}

Result<Page*> ObjectStore::FetchForRedo(PageId page_id) {
  for (;;) {
    auto page = pool_->FetchPage(page_id);
    if (page.ok() || !page.status().IsOutOfRange()) return page;
    // An unowned placeholder: a page's kPageFormat record replays before
    // any image of it and sets the owner. Placeholders stay out of the
    // free-space map, which Bootstrap rebuilds after recovery.
    REACH_ASSIGN_OR_RETURN(Page * fresh, pool_->NewPage());
    PageGuard guard(pool_, fresh);
    guard.MarkDirty();
    SlottedPage(fresh).Init();
  }
}

Status ObjectStore::ApplyImage(PageId page_id, SlotId slot,
                               const WalCellImage& img, Lsn lsn) {
  std::unique_lock<std::shared_mutex> lock(op_mu_);
  REACH_ASSIGN_OR_RETURN(Page * page, FetchForRedo(page_id));
  PageGuard guard(pool_, page);
  SlottedPage sp(page);
  if (!sp.IsInitialized()) sp.Init();
  // Conditional redo: a flushed page image already reflects every record
  // at or below its pageLSN. Re-applying them is not just wasted work —
  // replaying old history on top of a newer page can transiently need more
  // cell space than the page has.
  if (lsn != 0 && sp.lsn() >= lsn) return Status::OK();
  Status st;
  if (img.flag == static_cast<uint16_t>(SlotFlag::kFree)) {
    st = sp.FreeAt(slot, img.generation);
  } else {
    st = sp.PlaceAt(slot, img.generation, img.bytes.data(), img.bytes.size(),
                    static_cast<SlotFlag>(img.flag));
  }
  if (st.ok()) {
    if (lsn != 0) sp.set_lsn(lsn);
    guard.MarkDirty();
    NoteFreeSpace(page_id, sp);
  }
  return st;
}

Status ObjectStore::ApplyFormat(PageId page_id, const Oid& owner, Lsn lsn) {
  std::unique_lock<std::shared_mutex> lock(op_mu_);
  REACH_ASSIGN_OR_RETURN(Page * page, FetchForRedo(page_id));
  PageGuard guard(pool_, page);
  SlottedPage sp(page);
  // The format is the first record of a page's life, so an initialized
  // page below `lsn` is one of FetchForRedo's placeholders.
  if (sp.IsInitialized() && sp.lsn() >= lsn) return Status::OK();
  sp.Init(owner);
  sp.set_lsn(lsn);
  guard.MarkDirty();
  NoteFreeSpace(page_id, sp);
  return Status::OK();
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
  return LogPhysical(txn, &sp, page_id, slot, std::move(before), target);
}

size_t ObjectStore::data_page_count() {
  std::shared_lock<std::shared_mutex> lock(op_mu_);
  std::lock_guard<std::mutex> flock(free_mu_);
  return free_space_.size();
}

}  // namespace reach
