#include "storage/slotted_page.h"

#include <algorithm>
#include <cstring>

namespace reach {

namespace {
constexpr uint16_t FreeFlag() { return static_cast<uint16_t>(SlotFlag::kFree); }

uint16_t CapacityFor(size_t len) {
  return static_cast<uint16_t>(
      std::max(len, SlottedPage::kMinCellSize));
}
}  // namespace

void SlottedPage::Init(const Oid& owner) {
  std::memset(page_->data(), 0, kPageSize);
  Header* h = header();
  h->magic = kMagic;
  h->slot_count = 0;
  h->cell_start = kPageSize;
  h->page_lsn = 0;
  EncodeOid(owner, h->owner);
}

bool SlottedPage::IsInitialized() const { return header()->magic == kMagic; }

size_t SlottedPage::ReclaimableBytes() const {
  size_t used = 0;
  for (SlotId i = 0; i < header()->slot_count; ++i) {
    const Slot* sl = slot(i);
    if (sl->flag != FreeFlag()) {
      // After compaction capacity shrinks to max(length, kMinCellSize).
      used += CapacityFor(sl->length);
    }
  }
  size_t occupied = kPageSize - header()->cell_start;
  return occupied > used ? occupied - used : 0;
}

size_t SlottedPage::FreeSpaceForInsert() const {
  size_t free_bytes = ContiguousFree() + ReclaimableBytes();
  bool has_free_slot = false;
  for (SlotId i = 0; i < header()->slot_count; ++i) {
    if (slot(i)->flag == FreeFlag()) {
      has_free_slot = true;
      break;
    }
  }
  size_t slot_cost = has_free_slot ? 0 : sizeof(Slot);
  if (free_bytes < slot_cost + kMinCellSize) return 0;
  return free_bytes - slot_cost;
}

size_t SlottedPage::FreeSpaceForUpdate(SlotId s) const {
  if (s >= header()->slot_count) return 0;
  const Slot* sl = slot(s);
  if (sl->flag == FreeFlag()) return 0;
  return ContiguousFree() + ReclaimableBytes() + CapacityFor(sl->length);
}

void SlottedPage::Compact() {
  struct LiveCell {
    SlotId id;
    uint16_t offset;
    uint16_t length;
  };
  std::vector<LiveCell> cells;
  for (SlotId i = 0; i < header()->slot_count; ++i) {
    Slot* sl = slot(i);
    if (sl->flag != FreeFlag()) {
      cells.push_back({i, sl->offset, sl->length});
    }
  }
  // Move highest-offset cells first so copies never overlap destructively.
  std::sort(cells.begin(), cells.end(),
            [](const LiveCell& a, const LiveCell& b) {
              return a.offset > b.offset;
            });
  uint16_t write_end = kPageSize;
  for (const LiveCell& c : cells) {
    uint16_t cap = CapacityFor(c.length);
    uint16_t new_offset = static_cast<uint16_t>(write_end - cap);
    std::memmove(page_->data() + new_offset, page_->data() + c.offset,
                 c.length);
    Slot* sl = slot(c.id);
    sl->offset = new_offset;
    sl->capacity = cap;
    write_end = new_offset;
  }
  header()->cell_start = write_end;
}

std::optional<std::pair<uint16_t, uint16_t>> SlottedPage::AllocateCell(
    size_t len) {
  uint16_t cap = CapacityFor(len);
  if (cap > ContiguousFree()) {
    if (cap > ContiguousFree() + ReclaimableBytes()) return std::nullopt;
    Compact();
    if (cap > ContiguousFree()) return std::nullopt;
  }
  uint16_t offset = static_cast<uint16_t>(header()->cell_start - cap);
  header()->cell_start = offset;
  return std::make_pair(offset, cap);
}

bool SlottedPage::GrowDirectoryTo(SlotId s) {
  while (header()->slot_count <= s) {
    if (SlotDirEnd() + sizeof(Slot) > header()->cell_start) {
      Compact();
      if (SlotDirEnd() + sizeof(Slot) > header()->cell_start) return false;
    }
    SlotId i = header()->slot_count++;
    Slot* sl = slot(i);
    sl->offset = 0;
    sl->capacity = 0;
    sl->length = 0;
    sl->generation = 0;
    sl->flag = FreeFlag();
  }
  return true;
}

Result<SlotId> SlottedPage::Insert(const char* data, size_t len,
                                   SlotFlag flag) {
  // Prefer reusing a freed slot: keeps the directory dense and lets the
  // generation counter detect dangling OIDs.
  SlotId target = header()->slot_count;
  bool reuse = false;
  for (SlotId i = 0; i < header()->slot_count; ++i) {
    if (slot(i)->flag == FreeFlag()) {
      target = i;
      reuse = true;
      break;
    }
  }
  if (!reuse) {
    uint16_t prev_count = header()->slot_count;
    if (!GrowDirectoryTo(target)) return Status::OutOfRange("page full");
    if (header()->slot_count != prev_count + 1) {
      return Status::Internal("slot directory growth anomaly");
    }
  }
  auto cell = AllocateCell(len);
  if (!cell) {
    if (!reuse) header()->slot_count--;  // roll back directory growth
    return Status::OutOfRange("page full (cell)");
  }
  Slot* sl = slot(target);
  sl->offset = cell->first;
  sl->capacity = cell->second;
  sl->length = static_cast<uint16_t>(len);
  sl->generation = static_cast<uint16_t>(sl->generation + 1);
  sl->flag = static_cast<uint16_t>(flag);
  std::memcpy(page_->data() + cell->first, data, len);
  return target;
}

Status SlottedPage::Update(SlotId s, const char* data, size_t len) {
  if (s >= header()->slot_count) return Status::NotFound("no such slot");
  Slot* sl = slot(s);
  if (sl->flag == FreeFlag()) return Status::NotFound("slot is free");
  if (len <= sl->capacity) {
    std::memcpy(page_->data() + sl->offset, data, len);
    sl->length = static_cast<uint16_t>(len);
    return Status::OK();
  }
  // Reallocate on this page: free the old cell first so compaction can
  // reclaim it, but keep the payload salvageable on failure.
  uint16_t old_flag = sl->flag;
  uint16_t old_gen = sl->generation;
  std::string old_payload(page_->data() + sl->offset, sl->length);
  sl->flag = FreeFlag();
  sl->length = 0;
  auto cell = AllocateCell(len);
  sl = slot(s);
  if (!cell) {
    // Restore the old cell (compaction may have moved memory, so rewrite).
    auto restore = AllocateCell(old_payload.size());
    if (!restore) return Status::Corruption("slotted page restore failed");
    sl->offset = restore->first;
    sl->capacity = restore->second;
    sl->length = static_cast<uint16_t>(old_payload.size());
    sl->generation = old_gen;
    sl->flag = old_flag;
    std::memcpy(page_->data() + restore->first, old_payload.data(),
                old_payload.size());
    return Status::OutOfRange("does not fit");
  }
  sl->offset = cell->first;
  sl->capacity = cell->second;
  sl->length = static_cast<uint16_t>(len);
  sl->generation = old_gen;
  sl->flag = old_flag;
  std::memcpy(page_->data() + cell->first, data, len);
  return Status::OK();
}

Status SlottedPage::Delete(SlotId s) {
  if (s >= header()->slot_count) return Status::NotFound("no such slot");
  Slot* sl = slot(s);
  if (sl->flag == FreeFlag()) return Status::NotFound("slot already free");
  sl->flag = FreeFlag();
  sl->length = 0;
  return Status::OK();
}

Status SlottedPage::Read(SlotId s, std::string* out, SlotFlag* flag) const {
  std::string_view cell = View(s, flag);
  if (*flag == SlotFlag::kFree) return Status::NotFound("no such cell");
  out->assign(cell);
  return Status::OK();
}

std::string_view SlottedPage::View(SlotId s, SlotFlag* flag) const {
  if (s >= header()->slot_count || slot(s)->flag == FreeFlag()) {
    *flag = SlotFlag::kFree;
    return {};
  }
  const Slot* sl = slot(s);
  *flag = static_cast<SlotFlag>(sl->flag);
  return {page_->data() + sl->offset, sl->length};
}

Result<uint16_t> SlottedPage::Generation(SlotId s) const {
  if (s >= header()->slot_count) return Status::NotFound("no such slot");
  return slot(s)->generation;
}

bool SlottedPage::Matches(SlotId s, uint16_t generation) const {
  if (s >= header()->slot_count) return false;
  const Slot* sl = slot(s);
  return sl->flag != FreeFlag() && sl->generation == generation;
}

Status SlottedPage::SetFlag(SlotId s, SlotFlag flag) {
  if (s >= header()->slot_count) return Status::NotFound("no such slot");
  Slot* sl = slot(s);
  if (sl->flag == FreeFlag()) return Status::NotFound("slot is free");
  sl->flag = static_cast<uint16_t>(flag);
  return Status::OK();
}

Status SlottedPage::SetForward(SlotId s, const Oid& target) {
  if (s >= header()->slot_count) return Status::NotFound("no such slot");
  Slot* sl = slot(s);
  if (sl->flag == FreeFlag()) return Status::NotFound("slot is free");
  char buf[kOidEncodedSize];
  EncodeOid(target, buf);
  REACH_RETURN_IF_ERROR(Update(s, buf, kOidEncodedSize));
  return SetFlag(s, SlotFlag::kForward);
}

Status SlottedPage::PlaceAt(SlotId s, uint16_t generation, const char* data,
                            size_t len, SlotFlag flag) {
  if (!GrowDirectoryTo(s)) {
    return Status::OutOfRange("page full (slot directory)");
  }
  Slot* sl = slot(s);
  // Recovery replays images into slots that may already own a cell (the
  // page reached disk before the crash). Rewrite in place when it fits so
  // repeated redo is idempotent instead of leaking a cell per replay until
  // the page reads as full. Free slots don't own their cell (compaction
  // reclaims it), so those always go through allocation.
  if (sl->flag != FreeFlag() && sl->capacity >= len) {
    std::memcpy(page_->data() + sl->offset, data, len);
    sl->length = static_cast<uint16_t>(len);
    sl->generation = generation;
    sl->flag = static_cast<uint16_t>(flag);
    return Status::OK();
  }
  sl->flag = FreeFlag();
  sl->length = 0;
  auto cell = AllocateCell(len);
  if (!cell) return Status::OutOfRange("page full (cell)");
  sl = slot(s);
  sl->offset = cell->first;
  sl->capacity = cell->second;
  sl->length = static_cast<uint16_t>(len);
  sl->generation = generation;
  sl->flag = static_cast<uint16_t>(flag);
  std::memcpy(page_->data() + cell->first, data, len);
  return Status::OK();
}

Status SlottedPage::FreeAt(SlotId s, uint16_t generation) {
  if (s >= header()->slot_count) return Status::OK();  // already absent
  Slot* sl = slot(s);
  sl->flag = FreeFlag();
  sl->length = 0;
  sl->generation = generation;
  return Status::OK();
}

uint16_t SlottedPage::slot_count() const { return header()->slot_count; }

std::vector<SlotId> SlottedPage::LiveSlots() const {
  std::vector<SlotId> out;
  for (SlotId i = 0; i < header()->slot_count; ++i) {
    if (slot(i)->flag == static_cast<uint16_t>(SlotFlag::kLive)) {
      out.push_back(i);
    }
  }
  return out;
}

std::vector<std::pair<SlotId, SlotFlag>> SlottedPage::OccupiedSlots() const {
  std::vector<std::pair<SlotId, SlotFlag>> out;
  for (SlotId i = 0; i < header()->slot_count; ++i) {
    if (slot(i)->flag != FreeFlag()) {
      out.emplace_back(i, static_cast<SlotFlag>(slot(i)->flag));
    }
  }
  return out;
}

void SlottedPage::EncodeOid(const Oid& oid, char* out) {
  uint32_t page = oid.page;
  uint16_t slot16 = oid.slot;
  uint16_t gen = oid.generation;
  std::memcpy(out, &page, 4);
  std::memcpy(out + 4, &slot16, 2);
  std::memcpy(out + 6, &gen, 2);
}

Oid SlottedPage::DecodeOid(const char* data) {
  Oid oid;
  uint32_t page;
  uint16_t slot16, gen;
  std::memcpy(&page, data, 4);
  std::memcpy(&slot16, data + 4, 2);
  std::memcpy(&gen, data + 6, 2);
  oid.page = page;
  oid.slot = slot16;
  oid.generation = gen;
  return oid;
}

size_t SlottedPage::MaxCellPayload() {
  return kPageSize - sizeof(Header) - sizeof(Slot);
}

}  // namespace reach
