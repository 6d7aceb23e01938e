// OID-addressed object storage on slotted pages (the EXODUS role).
//
// Properties:
//  * OIDs are stable: updates that no longer fit on the home page relocate
//    the body and leave a forwarding stub; readers follow it transparently.
//  * Objects larger than a page are split into a head cell plus a chain of
//    continuation segments on other pages.
//  * Every cell mutation is logged to the WAL as a physical before/after
//    image, making redo and undo idempotent.
//
// Concurrency: two-tier locking. Readers (Read/Exists/ScanAll/VisitHomes)
// hold the operation lock shared plus, one page at a time, a striped
// per-page lock shared, so lookups of distinct objects proceed in parallel. Single-page
// mutations (unsegmented insert, in-place whole-object update, whole-object
// delete) also hold the operation lock shared and take only their page's
// stripe exclusively — readers of *other* pages keep flowing during the
// write. Multi-page mutations (relocation, forwarding, segment chains,
// recovery applies) fall back to the operation lock exclusive. No path ever
// holds two page stripes at once, so the stripes cannot deadlock. The
// free-space map has its own mutex and is indexed by (owner, free bytes), so
// picking a page for an insert costs O(log pages) however large the store
// grows; page stripes are always taken before the free-space mutex.
//
// Freed space stays with its transaction: a page on which an unfinished
// transaction deleted a cell or shrank one is offered to no other
// transaction's insert until the transaction manager reports the freeing
// transaction ended (ReleaseFreedSpace). Reusing that slot or those bytes
// would leave the transaction's undo nothing to restore into — its
// before-image would overwrite the newcomer.
//
// Page owners: every data page belongs to one owner for its whole life — a
// class extent anchor, or kInvalidOid (unowned). Insert places an object's
// home cell only on pages of the owner it names, so a class extent is the
// set of home cells on its owner's pages (OwnedPages + AppendHomes) and
// needs no list of its own. Formatting a page appends one redo-only
// kPageFormat record; nothing else about ownership is logged.
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/buffer_pool.h"
#include "storage/slotted_page.h"
#include "storage/wal.h"

namespace reach {

class ObjectStore {
 public:
  /// `first_data_page`: pages below this are reserved (meta page 0).
  ObjectStore(BufferPool* pool, Wal* wal, PageId first_data_page = 1);

  /// Pages worth of readahead per batched pool submission — the window used
  /// by ScanAll / Bootstrap, and by scan consumers above the store (query
  /// morsels) so one warming call never floods the pool.
  static constexpr size_t kScanReadAheadPages = 32;

  /// Rebuild the free-space map and the owner -> pages index by scanning
  /// existing pages. Call once after recovery / open.
  Status Bootstrap();

  /// Store a new object; returns its stable OID. The home cell lands on a
  /// page of `owner` (formatted on demand); continuation segments of a
  /// large object go to unowned pages.
  Result<Oid> Insert(TxnId txn, std::string_view bytes,
                     const Oid& owner = kInvalidOid);

  /// Read an object (follows forwarding stubs and segment chains).
  Result<std::string> Read(const Oid& oid);

  /// Calls `visit(oid, bytes)` for each home on `page` (AppendHomes), in
  /// slot order. An unforwarded, unsegmented object's bytes are a view
  /// over the pinned frame, read under the page's stripe (shared) — one pin
  /// and one stripe hold for all of them. A forwarded or segmented object's
  /// body is assembled and visited after the stripe is released, since no
  /// path may hold two stripes. The view is valid only during the call;
  /// `visit` must not block or call back into the store. A non-OK status
  /// from `visit` stops the visit and is returned.
  using HomeVisitor = std::function<Status(const Oid&, std::string_view)>;
  Status VisitHomes(PageId page, const HomeVisitor& visit);

  /// Replace an object's bytes. The OID remains valid.
  Status Update(TxnId txn, const Oid& oid, std::string_view bytes);

  /// Remove an object (frees its body and any segments).
  Status Delete(TxnId txn, const Oid& oid);

  /// True if `oid` currently names a live object.
  bool Exists(const Oid& oid);

  /// Home OIDs of every live object.
  Result<std::vector<Oid>> ScanAll();

  /// Data pages owned by `owner`, ascending.
  std::vector<PageId> OwnedPages(const Oid& owner);

  /// The owner of data page `page`; kInvalidOid for an unowned or
  /// unformatted page.
  Oid PageOwner(PageId page);

  /// Append the home OIDs on `page` (kLive and kForward cells; kMoved
  /// bodies and segments belong to homes elsewhere), in slot order.
  Status AppendHomes(PageId page, std::vector<Oid>* out);

  /// Recovery support: apply a physical image directly to a page. Not
  /// WAL-logged — only recovery may use this. A nonzero `lsn` makes the
  /// apply conditional (redo): pages whose pageLSN already covers `lsn`
  /// are left untouched, and applied pages are stamped with `lsn`. Undo
  /// passes 0 to apply unconditionally.
  Status ApplyImage(PageId page, SlotId slot, const WalCellImage& img,
                    Lsn lsn = 0);

  /// Recovery redo of a kPageFormat record: format `page` for `owner`
  /// unless its pageLSN already covers `lsn`.
  Status ApplyFormat(PageId page, const Oid& owner, Lsn lsn);

  /// Transaction-rollback support: restore a cell to `target`, logging the
  /// change as a regular (compensating) physical record of `txn` so a crash
  /// during rollback still recovers correctly.
  Status ApplyImageLogged(TxnId txn, PageId page, SlotId slot,
                          const WalCellImage& target);

  /// Offer the space `txn` freed (deletes, shrinking updates) to every
  /// transaction's inserts again. Call once `txn` has ended: after its
  /// commit record, or after its undo.
  void ReleaseFreedSpace(TxnId txn);

  /// Before-image notification for every logged cell mutation; the
  /// transaction manager uses it to build per-transaction undo chains.
  using MutationListener = std::function<void(
      TxnId, PageId, SlotId, const WalCellImage& before)>;
  void set_mutation_listener(MutationListener listener) {
    mutation_listener_ = std::move(listener);
  }

  /// Number of allocated data pages (benchmark statistic).
  size_t data_page_count();

 private:
  // Envelope kinds prefixed to each stored cell payload.
  static constexpr char kWhole = 0;  // [kWhole][bytes]
  static constexpr char kHead = 1;   // [kHead][next oid][u32 total][chunk]
  static constexpr char kCont = 2;   // [kCont][next oid][chunk]

  static constexpr size_t kEnvelopeMax =
      1 + SlottedPage::kOidEncodedSize + sizeof(uint32_t);
  // Extra bytes requested from PageWithSpace to cover capacity rounding.
  static constexpr size_t kMinCellSlack = SlottedPage::kMinCellSize;
  // Largest single-cell payload we will ever write: leaves room for the page
  // header, one slot entry, and compaction slack on a fresh page.
  static constexpr size_t kMaxCellBytes = kPageSize - 64;
  // Data bytes carried by one continuation segment.
  static constexpr size_t kContChunk = kMaxCellBytes - kEnvelopeMax;
  // Data bytes kept in the head cell of a segmented object (small enough
  // that in-place head updates usually succeed).
  static constexpr size_t kHeadChunk = 1024;

  /// Pick (or format) a page of `owner` with at least `need` insertable
  /// bytes that `txn` may insert on: the best fit (least such space, then
  /// lowest page id), O(log pages) plus the withheld pages skipped.
  Result<PageId> PageWithSpace(TxnId txn, const Oid& owner, size_t need);

  /// Insert one raw cell on a page of `owner`; logs the mutation; returns
  /// its OID.
  Result<Oid> InsertCell(TxnId txn, const Oid& owner,
                         std::string_view payload, SlotFlag flag);

  /// Insert one raw cell on exactly `page_id`; OutOfRange if it no longer
  /// fits there (the free-space entry is refreshed so retries move on) or
  /// the page is withheld from `txn`.
  Result<Oid> InsertCellAt(TxnId txn, PageId page_id, std::string_view payload,
                           SlotFlag flag);

  /// Delete one raw cell (logs it).
  Status DeleteCell(TxnId txn, const Oid& oid);

  /// Replace the raw payload of `oid`'s cell in place; fails if it no
  /// longer fits there. `new_flag` lets callers convert live<->forward.
  Status UpdateCellInPlace(TxnId txn, const Oid& oid,
                           std::string_view payload, SlotFlag new_flag);

  /// Read the raw cell payload + flag at exactly `oid` (no forwarding).
  /// Takes no page stripe — for callers already excluding writers (op_mu_
  /// exclusive, or the oid's stripe held).
  Status ReadCell(const Oid& oid, std::string* payload, SlotFlag* flag);

  /// ReadCell under the oid's page stripe (shared) — the reader-path
  /// variant, safe against concurrent single-page writers.
  Status ReadCellShared(const Oid& oid, std::string* payload, SlotFlag* flag);

  /// Encode `bytes` into a head payload, inserting continuation segments as
  /// needed (tail first). Returns the head cell payload.
  Result<std::string> BuildBody(TxnId txn, std::string_view bytes);

  /// Free the continuation chain hanging off a head payload.
  Status FreeChain(TxnId txn, const std::string& head_payload);

  /// Concatenate a head payload and its chain into the full object bytes.
  Result<std::string> AssembleBody(std::string head_payload);

  /// Read with op_mu_ already held shared.
  Result<std::string> ReadHeld(const Oid& oid);

  /// Append a physical record and stamp `sp`'s page LSN with the record's
  /// LSN, maintaining the ARIES invariant that a flushed page image reflects
  /// exactly the records at or below its pageLSN. The images move into the
  /// record.
  Status LogPhysical(TxnId txn, SlottedPage* sp, PageId page, SlotId slot,
                     WalCellImage before, WalCellImage after);

  /// Record `page`'s owner and insertable bytes in the free-space map.
  void NoteFreeSpace(PageId page, const SlottedPage& sp);

  /// `txn` freed space on `page`: withhold the page from other
  /// transactions' inserts until ReleaseFreedSpace(txn). Called under the
  /// page's stripe (or op_mu_ exclusive), before NoteFreeSpace.
  void WithholdPage(TxnId txn, PageId page);

  /// True unless a transaction other than `txn` freed space on `page` and
  /// has not ended. Requires free_mu_.
  bool InsertableBy(TxnId txn, PageId page) const;

  /// Fetch `page` for redo, allocating pages up to it when the data file is
  /// shorter (recovery may reference pages that never reached disk).
  Result<Page*> FetchForRedo(PageId page);

  /// Striped per-page lock (see the concurrency note above). These order
  /// page *content* access; `free_mu_` guards the free-space map.
  static constexpr size_t kPageLockStripes = 64;
  std::shared_mutex& PageLockFor(PageId page) {
    return page_locks_[page % kPageLockStripes].mu;
  }

  BufferPool* pool_;
  Wal* wal_;
  PageId first_data_page_;
  // Tier one: readers and single-page writers shared, multi-page writers
  // exclusive (see the concurrency note at the top). Every object read
  // takes it and one stripe, so each lock gets a cache line of its own:
  // concurrent readers of different pages then share no line but op_mu_'s.
  alignas(64) std::shared_mutex op_mu_;
  // Tier two: per-page striped locks ordering page-content access among
  // op_mu_ shared holders.
  struct alignas(64) Stripe {
    std::shared_mutex mu;
  };
  Stripe page_locks_[kPageLockStripes];
  // Free-space map: owner and insertable bytes per data page, in page
  // order; the same entries ordered by (owner, insertable bytes, page) so
  // PageWithSpace's best fit is one lower_bound; and each owner's pages,
  // ascending. `free_mu_` guards all three; it is taken after op_mu_ and
  // any page stripe, and nothing is locked while holding it.
  struct PageSpace {
    Oid owner;
    size_t space = 0;
  };
  std::mutex free_mu_;
  std::map<PageId, PageSpace> free_space_;
  std::set<std::tuple<Oid, size_t, PageId>> by_space_;
  std::unordered_map<Oid, std::vector<PageId>> owned_;
  // Pages holding space freed by unfinished transactions, with those
  // transactions, and the same relation by transaction. Guarded by
  // free_mu_.
  std::unordered_map<PageId, std::vector<TxnId>> withheld_;
  std::unordered_map<TxnId, std::vector<PageId>> withheld_by_;
  MutationListener mutation_listener_;
};

}  // namespace reach
