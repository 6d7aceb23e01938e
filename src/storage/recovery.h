// Crash recovery: repeat history (redo every physical and page-format
// record in LSN order), then roll back losers (apply before-images of
// unfinished transactions in reverse LSN order). Full before/after images
// make both passes idempotent. The log is streamed twice through Wal::Scan:
// analysis reads record headers only, redo decodes the physical and
// page-format records; only the losers' before-images are held in memory.
#pragma once

#include <cstdint>

#include "common/status.h"
#include "storage/object_store.h"
#include "storage/wal.h"

namespace reach {

struct RecoveryStats {
  size_t records_scanned = 0;
  size_t records_redone = 0;
  size_t records_undone = 0;
  size_t committed_txns = 0;
  size_t aborted_txns = 0;
  size_t loser_txns = 0;
  /// Event-history records re-appended across the post-recovery truncation
  /// (last event checkpoint + tail; see StorageManager carryover).
  size_t event_records_carried = 0;
};

class RecoveryManager {
 public:
  RecoveryManager(Wal* wal, ObjectStore* store) : wal_(wal), store_(store) {}

  /// Run analysis, redo and undo. Pages are modified in the buffer pool;
  /// the caller is responsible for flushing and truncating the log after.
  Status Recover(RecoveryStats* stats);

 private:
  Wal* wal_;
  ObjectStore* store_;
};

}  // namespace reach
