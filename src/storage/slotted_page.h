// Slotted-page layout for variable-length objects.
//
//   [header][slot 0][slot 1]...            ...[cell k]...[cell 1][cell 0]
//   header grows right, cell data grows left from the page end.
//
// Each slot carries a generation counter (for dangling-OID detection) and a
// flag distinguishing live cells from forwarding stubs: when an update no
// longer fits on the object's home page, the object moves and the home slot
// keeps a forward pointer so the OID stays stable. Cells always reserve at
// least kMinCellSize bytes, which guarantees a live cell can be converted
// into a forward stub (an encoded Oid) in place.
//
// The header also carries the page's owner: the extent anchor OID of the
// class whose objects live here, or kInvalidOid for unowned pages (the
// dictionary, extent anchors, relocated bodies and continuation segments).
// The owner is set when the page is formatted and never changes, so a
// class extent is exactly the home cells of the pages its anchor owns.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "storage/page.h"

namespace reach {

enum class SlotFlag : uint16_t {
  kFree = 0,      // slot unused (generation preserved for reuse detection)
  kLive = 1,      // cell holds the object bytes (object's home)
  kForward = 2,   // cell holds a serialized Oid pointing at the new home
  kMoved = 3,     // cell holds bytes for an object whose home is elsewhere
                  // (relocated body or large-object continuation segment)
};

class SlottedPage {
 public:
  static constexpr size_t kMinCellSize = 16;

  /// Wrap an in-memory page buffer. Does not take ownership.
  explicit SlottedPage(Page* page) : page_(page) {}

  /// Format a fresh page (zero slots, all payload free) owned by `owner`.
  void Init(const Oid& owner = kInvalidOid);

  /// True if the page has been formatted by Init().
  bool IsInitialized() const;

  /// Bytes available for a new cell after compaction, accounting for the
  /// slot entry a fresh insert would need.
  size_t FreeSpaceForInsert() const;

  /// Largest payload that could replace the cell in `slot` in place.
  size_t FreeSpaceForUpdate(SlotId slot) const;

  /// Insert a new cell; assigns a slot (reusing freed ones) and bumps the
  /// slot generation. Fails with OutOfRange if the payload cannot fit.
  Result<SlotId> Insert(const char* data, size_t len, SlotFlag flag);

  /// Replace the payload of a live/moved/forward slot (same generation).
  /// Grows within the cell's capacity or by reallocating on this page;
  /// fails with OutOfRange if the page cannot hold the new payload.
  Status Update(SlotId slot, const char* data, size_t len);

  /// Free a slot (generation preserved; bumped on reuse).
  Status Delete(SlotId slot);

  /// Read a cell's payload and flag.
  Status Read(SlotId slot, std::string* out, SlotFlag* flag) const;

  /// A cell's payload as a view over the page, and its flag (kFree, with an
  /// empty view, for a free or missing slot). Valid while the page stays
  /// pinned and unchanged.
  std::string_view View(SlotId slot, SlotFlag* flag) const;

  /// Generation currently stored for a slot.
  Result<uint16_t> Generation(SlotId slot) const;

  /// True if `slot` holds a non-free cell with generation `generation`.
  bool Matches(SlotId slot, uint16_t generation) const;

  /// Change a cell's flag without touching its payload.
  Status SetFlag(SlotId slot, SlotFlag flag);

  /// Change a live cell into a forward stub pointing at `target`. Always
  /// succeeds on a live cell thanks to kMinCellSize.
  Status SetForward(SlotId slot, const Oid& target);

  /// Recovery support: force slot `slot` to hold `data` with `generation`
  /// and `flag`, creating intermediate free slots if needed.
  Status PlaceAt(SlotId slot, uint16_t generation, const char* data,
                 size_t len, SlotFlag flag);

  /// Recovery support: force slot `slot` to be free with `generation`.
  Status FreeAt(SlotId slot, uint16_t generation);

  uint16_t slot_count() const;

  /// Slots currently holding live cells (excludes forwards and free slots).
  std::vector<SlotId> LiveSlots() const;

  /// Every non-free slot with its flag (scan support).
  std::vector<std::pair<SlotId, SlotFlag>> OccupiedSlots() const;

  /// Serialize an Oid into 8 bytes (used for forward cells).
  static void EncodeOid(const Oid& oid, char* out);
  static Oid DecodeOid(const char* data);
  static constexpr size_t kOidEncodedSize = 8;

  /// Largest payload a cell on a freshly initialized page can hold.
  static size_t MaxCellPayload();

  /// LSN of the last WAL record applied to this page (ARIES pageLSN). Redo
  /// skips records at or below it, so replaying history onto a page that
  /// was flushed *after* those records is a no-op instead of a re-apply.
  uint64_t lsn() const { return header()->page_lsn; }
  void set_lsn(uint64_t lsn) { header()->page_lsn = lsn; }

  /// Extent anchor owning this page (kInvalidOid: unowned).
  Oid owner() const { return DecodeOid(header()->owner); }

 private:
  struct Header {
    uint32_t magic;
    uint16_t slot_count;
    uint16_t cell_start;  // offset of the lowest cell byte
    uint64_t page_lsn;    // last WAL record reflected in this page image
    char owner[kOidEncodedSize];  // encoded owner anchor OID
  };
  struct Slot {
    uint16_t offset;
    uint16_t capacity;  // bytes reserved for the cell (>= kMinCellSize)
    uint16_t length;    // bytes in use (<= capacity)
    uint16_t generation;
    uint16_t flag;
  };

  static constexpr uint32_t kMagic = 0x52454348;  // "RECH"

  Header* header() { return reinterpret_cast<Header*>(page_->data()); }
  const Header* header() const {
    return reinterpret_cast<const Header*>(page_->data());
  }
  Slot* slot(SlotId i) {
    return reinterpret_cast<Slot*>(page_->data() + sizeof(Header)) + i;
  }
  const Slot* slot(SlotId i) const {
    return reinterpret_cast<const Slot*>(page_->data() + sizeof(Header)) + i;
  }

  size_t SlotDirEnd() const {
    return sizeof(Header) + header()->slot_count * sizeof(Slot);
  }

  /// Contiguous gap between the slot directory and the lowest cell.
  size_t ContiguousFree() const { return header()->cell_start - SlotDirEnd(); }

  /// Bytes recoverable by compaction (freed cells + shrunk capacities).
  size_t ReclaimableBytes() const;

  /// Slide live cells to the page end, re-packing capacities.
  void Compact();

  /// Reserve max(len, kMinCellSize) bytes of cell space (compacts if
  /// needed); returns {offset, capacity}.
  std::optional<std::pair<uint16_t, uint16_t>> AllocateCell(size_t len);

  /// Ensure the slot directory can hold slot index `s`.
  bool GrowDirectoryTo(SlotId s);

  Page* page_;
};

}  // namespace reach
