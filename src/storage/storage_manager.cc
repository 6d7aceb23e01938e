#include "storage/storage_manager.h"

#include <cstring>

#include "testing/fault_points.h"
#include "testing/fault_registry.h"

namespace reach {

Result<std::unique_ptr<StorageManager>> StorageManager::Open(
    const std::string& base_path, const StorageOptions& options) {
  auto sm = std::unique_ptr<StorageManager>(new StorageManager());
  REACH_ASSIGN_OR_RETURN(
      sm->disk_, DiskManager::Open(base_path + ".db", options.disk_backend));
  REACH_ASSIGN_OR_RETURN(sm->wal_, Wal::Open(base_path + ".wal", options.wal,
                                             options.disk_backend));
  BufferPoolOptions pool_options;
  pool_options.shards = options.bufferpool_shards;
  pool_options.writeback = options.writeback;
  pool_options.writeback_watermark = options.writeback_watermark;
  sm->pool_ = std::make_unique<BufferPool>(
      sm->disk_.get(), options.buffer_pool_pages, pool_options);
  Wal* wal = sm->wal_.get();
  // Write-ahead invariant: force the log up to the page's LSN before its
  // image reaches disk. Pages without an LSN (the meta page) force the
  // whole log.
  sm->pool_->set_pre_write_hook([wal](Lsn page_lsn) {
    return page_lsn == kInvalidLsn ? wal->Flush() : wal->FlushUpTo(page_lsn);
  });
  sm->objects_ = std::make_unique<ObjectStore>(sm->pool_.get(), wal,
                                               /*first_data_page=*/1);

  // Ensure the meta page exists.
  if (sm->disk_->num_pages() == 0) {
    REACH_ASSIGN_OR_RETURN(Page * meta, sm->pool_->NewPage());
    if (meta->page_id() != 0) {
      return Status::Internal("meta page must be page 0");
    }
    REACH_RETURN_IF_ERROR(sm->InitMetaPage(meta));
    REACH_RETURN_IF_ERROR(sm->pool_->UnpinPage(0, /*dirty=*/true));
    REACH_RETURN_IF_ERROR(sm->pool_->FlushPage(0));
  } else {
    // A crash between allocating page 0 and its first successful write
    // leaves an all-zero meta page on disk; finish the interrupted
    // initialization. A *nonzero* bad-magic page is real corruption and is
    // left for GetMetaRoot to report.
    REACH_ASSIGN_OR_RETURN(Page * meta, sm->pool_->FetchPage(0));
    uint32_t magic = 0;
    std::memcpy(&magic, meta->data(), sizeof(magic));
    bool all_zero = true;
    for (size_t i = 0; i < kPageSize && all_zero; ++i) {
      all_zero = meta->data()[i] == 0;
    }
    if (magic != kMetaMagic && all_zero) {
      REACH_RETURN_IF_ERROR(sm->InitMetaPage(meta));
      REACH_RETURN_IF_ERROR(sm->pool_->UnpinPage(0, /*dirty=*/true));
      REACH_RETURN_IF_ERROR(sm->pool_->FlushPage(0));
    } else {
      REACH_RETURN_IF_ERROR(sm->pool_->UnpinPage(0, /*dirty=*/false));
    }
  }

  // Raise the WAL's LSN counter to the persisted floor before any record is
  // appended, so this epoch's LSNs exceed every page LSN stamped before the
  // last truncation.
  REACH_ASSIGN_OR_RETURN(Lsn floor, sm->ReadLsnFloor());
  wal->EnsureNextLsnAtLeast(floor);

  // Crash recovery, then checkpoint so the log starts empty. The new floor
  // must reach disk before the truncate makes the old LSNs unrecoverable.
  RecoveryManager recovery(wal, sm->objects_.get());
  REACH_RETURN_IF_ERROR(recovery.Recover(&sm->recovery_stats_));
  REACH_RETURN_IF_ERROR(sm->pool_->FlushAll());
  REACH_RETURN_IF_ERROR(sm->WriteLsnFloor(wal->next_lsn()));
  REACH_RETURN_IF_ERROR(sm->disk_->Sync());
  REACH_RETURN_IF_ERROR(sm->RotateLogKeepingEventHistory(
      &sm->recovery_stats_.event_records_carried));

  REACH_RETURN_IF_ERROR(sm->objects_->Bootstrap());
  return sm;
}

Status StorageManager::InitMetaPage(Page* meta) {
  uint32_t magic = kMetaMagic;
  std::memcpy(meta->data(), &magic, sizeof(magic));
  char invalid[SlottedPage::kOidEncodedSize];
  SlottedPage::EncodeOid(kInvalidOid, invalid);
  std::memcpy(meta->data() + sizeof(magic), invalid, sizeof(invalid));
  Lsn floor = 0;
  std::memcpy(meta->data() + kLsnFloorOffset, &floor, sizeof(floor));
  return Status::OK();
}

Status StorageManager::LogBegin(TxnId txn) {
  WalRecord rec;
  rec.type = WalRecordType::kBegin;
  rec.txn = txn;
  auto lsn = wal_->Append(std::move(rec));
  return lsn.ok() ? Status::OK() : lsn.status();
}

Result<Lsn> StorageManager::LogCommit(TxnId txn) {
  WalRecord rec;
  rec.type = WalRecordType::kCommit;
  rec.txn = txn;
  return wal_->Append(std::move(rec));
}

Status StorageManager::LogAbort(TxnId txn) {
  WalRecord rec;
  rec.type = WalRecordType::kAbort;
  rec.txn = txn;
  auto lsn = wal_->Append(std::move(rec));
  if (!lsn.ok()) return lsn.status();
  return wal_->Flush();
}

Status StorageManager::Checkpoint() {
  REACH_RETURN_IF_ERROR(pool_->FlushAll());
  REACH_RETURN_IF_ERROR(WriteLsnFloor(wal_->next_lsn()));
  REACH_RETURN_IF_ERROR(disk_->Sync());
  return RotateLogKeepingEventHistory();
}

Status StorageManager::RotateLogKeepingEventHistory(size_t* carried) {
  if (carried != nullptr) *carried = 0;
  REACH_FAULT_POINT(faults::kEventHistoryCarryover);
  // Keep the last event checkpoint and every event record after it; with no
  // checkpoint the whole history is the replay tail.
  std::vector<WalRecord> keep;
  REACH_RETURN_IF_ERROR(wal_->Scan([&keep](WalRecord& rec) {
    if (!IsEventRecord(rec.type)) return Status::OK();
    if (rec.type == WalRecordType::kEventCheckpoint) keep.clear();
    keep.push_back(std::move(rec));
    return Status::OK();
  }));
  REACH_RETURN_IF_ERROR(wal_->Truncate());
  if (keep.empty()) return Status::OK();
  for (WalRecord& rec : keep) {
    rec.lsn = kInvalidLsn;  // reassigned in the fresh epoch
    auto lsn = wal_->Append(std::move(rec));
    if (!lsn.ok()) return lsn.status();
  }
  if (carried != nullptr) *carried = keep.size();
  return wal_->Flush();
}

Result<Lsn> StorageManager::ReadLsnFloor() {
  REACH_ASSIGN_OR_RETURN(Page * meta, pool_->FetchPage(0));
  Lsn floor = 0;
  std::memcpy(&floor, meta->data() + kLsnFloorOffset, sizeof(floor));
  REACH_RETURN_IF_ERROR(pool_->UnpinPage(0, /*dirty=*/false));
  return floor;
}

Status StorageManager::WriteLsnFloor(Lsn floor) {
  REACH_ASSIGN_OR_RETURN(Page * meta, pool_->FetchPage(0));
  std::memcpy(meta->data() + kLsnFloorOffset, &floor, sizeof(floor));
  REACH_RETURN_IF_ERROR(pool_->UnpinPage(0, /*dirty=*/true));
  return pool_->FlushPage(0);
}

Result<Oid> StorageManager::GetMetaRoot() {
  REACH_ASSIGN_OR_RETURN(Page * meta, pool_->FetchPage(0));
  uint32_t magic = 0;
  std::memcpy(&magic, meta->data(), sizeof(magic));
  if (magic != kMetaMagic) {
    pool_->UnpinPage(0, false);
    return Status::Corruption("bad meta page magic");
  }
  Oid root = SlottedPage::DecodeOid(meta->data() + sizeof(magic));
  REACH_RETURN_IF_ERROR(pool_->UnpinPage(0, false));
  return root;
}

Status StorageManager::SetMetaRoot(const Oid& root) {
  REACH_ASSIGN_OR_RETURN(Page * meta, pool_->FetchPage(0));
  char buf[SlottedPage::kOidEncodedSize];
  SlottedPage::EncodeOid(root, buf);
  std::memcpy(meta->data() + sizeof(uint32_t), buf, sizeof(buf));
  REACH_RETURN_IF_ERROR(pool_->UnpinPage(0, /*dirty=*/true));
  return pool_->FlushPage(0);
}

}  // namespace reach
