// StorageManager: the facade the OODB layers talk to. Owns the disk
// manager, WAL, buffer pool and object store of one database, and runs
// recovery on open (the EXODUS role in the REACH stack).
#pragma once

#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/object_store.h"
#include "storage/recovery.h"
#include "storage/wal.h"

namespace reach {

struct StorageOptions {
  size_t buffer_pool_pages = 256;
  WalOptions wal;
};

class StorageManager {
 public:
  /// Open (or create) the database rooted at `base_path`; the data file is
  /// `<base_path>.db` and the log `<base_path>.wal`. Runs crash recovery.
  static Result<std::unique_ptr<StorageManager>> Open(
      const std::string& base_path, const StorageOptions& options = {});

  ObjectStore* objects() { return objects_.get(); }
  BufferPool* buffer_pool() { return pool_.get(); }
  DiskManager* disk() { return disk_.get(); }
  Wal* wal() { return wal_.get(); }

  /// Statistics from the recovery pass executed by Open().
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  /// Transaction log hooks used by the transaction manager.
  Status LogBegin(TxnId txn);
  /// Appends a commit record and returns its LSN. The commit is durable
  /// only once wal()->WaitDurable(lsn) returns OK — the transaction manager
  /// blocks there so concurrent committers share one fsync (group commit).
  Result<Lsn> LogCommit(TxnId txn);
  /// Appends an abort record (after compensations have been logged).
  Status LogAbort(TxnId txn);

  /// Flush all pages and truncate the log. Precondition: no transaction is
  /// active (all undo information in the log becomes unavailable). Event
  /// history records survive the truncation (see
  /// RotateLogKeepingEventHistory).
  Status Checkpoint();

  /// Meta page (page 0) root pointer: where the data dictionary lives.
  Result<Oid> GetMetaRoot();
  Status SetMetaRoot(const Oid& root);

 private:
  StorageManager() = default;

  /// Write the magic + invalid root pointer into a pinned page-0 frame.
  static Status InitMetaPage(Page* meta);

  /// LSN floor persisted in the meta page: on open, the WAL's LSN counter is
  /// raised to this value so LSNs stay monotonic across log truncations
  /// (page LSNs stamped in an earlier epoch must never exceed new LSNs).
  Result<Lsn> ReadLsnFloor();
  Status WriteLsnFloor(Lsn floor);

  /// Truncate the log but preserve the durable event history: the last
  /// event-checkpoint record and every event record after it (everything,
  /// if no checkpoint exists) are re-appended into the fresh log and
  /// flushed. `carried` (optional) receives the record count.
  Status RotateLogKeepingEventHistory(size_t* carried = nullptr);

  static constexpr uint32_t kMetaMagic = 0x52454d54;  // "REMT"
  static constexpr size_t kLsnFloorOffset =
      sizeof(uint32_t) + SlottedPage::kOidEncodedSize;

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<ObjectStore> objects_;
  RecoveryStats recovery_stats_;
};

}  // namespace reach
