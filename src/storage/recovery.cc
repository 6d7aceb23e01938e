#include "storage/recovery.h"

#include <unordered_set>
#include <vector>

namespace reach {

Status RecoveryManager::Recover(RecoveryStats* stats) {
  // Analysis: which transactions finished (committed or fully aborted).
  std::unordered_set<TxnId> finished;
  std::unordered_set<TxnId> seen;
  size_t scanned = 0, committed = 0, aborted = 0;
  REACH_RETURN_IF_ERROR(wal_->Scan([&](WalRecord& rec) {
    ++scanned;
    if (rec.txn != kNoTxn) seen.insert(rec.txn);
    if (rec.type == WalRecordType::kCommit) {
      finished.insert(rec.txn);
      ++committed;
    } else if (rec.type == WalRecordType::kAbort) {
      // An abort record means the compensating records are already in the
      // log, so redo alone restores the rolled-back state.
      finished.insert(rec.txn);
      ++aborted;
    }
    return Status::OK();
  }));
  stats->records_scanned = scanned;
  stats->committed_txns = committed;
  stats->aborted_txns = aborted;

  std::unordered_set<TxnId> losers;
  for (TxnId txn : seen) {
    if (!finished.contains(txn)) losers.insert(txn);
  }
  stats->loser_txns = losers.size();

  // Redo: repeat history, page formats (with their owners) included.
  // Conditional on the page LSN — pages flushed after a record already
  // contain its effect and are left untouched. The losers'
  // before-images are collected on the way: undo needs nothing else.
  struct UndoImage {
    PageId page;
    SlotId slot;
    WalCellImage before;
  };
  std::vector<UndoImage> undo;
  REACH_RETURN_IF_ERROR(wal_->Scan([&](WalRecord& rec) {
    if (rec.type == WalRecordType::kPageFormat) {
      ++stats->records_redone;
      return store_->ApplyFormat(rec.page, rec.owner, rec.lsn);
    }
    if (rec.type != WalRecordType::kPhysical) return Status::OK();
    REACH_RETURN_IF_ERROR(
        store_->ApplyImage(rec.page, rec.slot, rec.after, rec.lsn));
    ++stats->records_redone;
    if (losers.contains(rec.txn)) {
      undo.push_back({rec.page, rec.slot, std::move(rec.before)});
    }
    return Status::OK();
  }));

  // Undo: roll back losers, newest first.
  for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
    REACH_RETURN_IF_ERROR(store_->ApplyImage(it->page, it->slot, it->before));
    ++stats->records_undone;
  }
  return Status::OK();
}

}  // namespace reach
