// Write-ahead log. Every object mutation is logged as a physical
// before/after image, which makes redo and undo idempotent: recovery replays
// after-images of committed transactions and before-images of losers.
//
// Durability is tracked by a monotonic durable-LSN watermark. With group
// commit enabled (the default) a dedicated flusher thread performs the
// write+fsync for all concurrent committers: each committer appends its
// commit record, then blocks on WaitDurable(lsn) until the watermark passes
// its LSN, so N concurrent commits share one fsync (see docs/STORAGE.md).
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"

namespace reach {

enum class WalRecordType : uint8_t {
  kBegin = 1,
  kPhysical = 2,  // insert/update/delete/forward, all as state transitions
  kCommit = 3,
  kAbort = 4,
  kCheckpoint = 5,
  // Durable event history (docs/EVENTS.md "Durability & recovery"). These
  // carry an opaque payload encoded by core/events/event_durability.h; the
  // envelope txn stays kNoTxn so data recovery's loser analysis never sees
  // an event record as an unfinished transaction.
  kEventOccurrence = 6,  // one cross-txn leaf occurrence, logged at Signal
  kEventCheckpoint = 7,  // compositor partial-state snapshot (replay floor)
  kEventTombstone = 8,   // consumption (completion fired) or expiry cutoff
};

/// Records that belong to the event history rather than data recovery.
/// Truncation preserves them (see StorageManager carryover).
inline bool IsEventRecord(WalRecordType type) {
  return type == WalRecordType::kEventOccurrence ||
         type == WalRecordType::kEventCheckpoint ||
         type == WalRecordType::kEventTombstone;
}

/// Cell state on a page: flag + generation + payload bytes. flag==0 (kFree)
/// means "no cell" (the payload must be empty then).
struct WalCellImage {
  uint16_t flag = 0;
  uint16_t generation = 0;
  std::string bytes;
};

struct WalRecord {
  WalRecordType type = WalRecordType::kBegin;
  Lsn lsn = kInvalidLsn;
  TxnId txn = kNoTxn;
  // kPhysical only:
  PageId page = kInvalidPageId;
  SlotId slot = 0;
  WalCellImage before;
  WalCellImage after;
  // Event records only: opaque body framed by the record envelope.
  std::string payload;
};

/// Group-commit policy (docs/STORAGE.md "Batch policy").
struct WalOptions {
  /// Commit piggybacking via the background flusher thread: whatever
  /// accumulated while the previous fsync ran forms the next batch. Off =
  /// the classic inline path: every Flush() does its own write+fsync.
  bool group_commit = true;
};

class Wal {
 public:
  ~Wal();

  /// Open (creating if necessary) the log file at `path`. Starts the
  /// flusher thread when options.group_commit is set.
  static Result<std::unique_ptr<Wal>> Open(const std::string& path,
                                           const WalOptions& options = {});

  /// Append a record; assigns and returns its LSN. Buffered until flushed.
  Result<Lsn> Append(WalRecord record);

  /// Force everything appended so far to stable storage. With group commit
  /// this is WaitDurable(last appended LSN); without, an inline write+fsync.
  Status Flush();

  /// Block until every record with LSN <= lsn is on stable storage. A failed
  /// batch write/fsync fails every waiter of that batch with the same
  /// status; waiters that arrive afterwards trigger a retry.
  Status WaitDurable(Lsn lsn);

  /// Highest LSN known to be on stable storage (monotonic watermark).
  Lsn durable_lsn() const { return durable_lsn_.load(std::memory_order_acquire); }

  /// Read window of Scan: records are decoded from a buffer of this many
  /// bytes, grown only as far as one record's declared length.
  static constexpr size_t kScanWindowBytes = 1u << 20;

  /// Visitor of Scan. May move from the record; a non-OK status stops the
  /// scan and is returned by it.
  using ScanVisitor = std::function<Status(WalRecord& record)>;

  /// Visit every record in the log file in LSN order, stopping at the first
  /// torn or corrupt record (the tail of a crashed write). Records still
  /// buffered in memory are not visited. Memory is bounded by
  /// max(window_bytes, largest record) whatever the log size. mu_ is not
  /// held while `visit` runs, so a visitor may force the log (recovery's
  /// redo can evict a dirty page, whose pre-write hook calls WaitDurable).
  /// Must not run concurrently with Truncate.
  Status Scan(const ScanVisitor& visit,
              size_t window_bytes = kScanWindowBytes);

  /// Discard the log contents (after a checkpoint has made them redundant).
  Status Truncate();

  Lsn next_lsn() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_lsn_;
  }

  /// Raise next_lsn to at least `floor`. The storage manager persists an LSN
  /// floor in the meta page before each truncation so LSNs stay monotonic
  /// across restarts — otherwise a fresh (truncated) log would restart at 1
  /// and page LSNs stamped in an earlier epoch would wrongly suppress redo.
  void EnsureNextLsnAtLeast(Lsn floor);

  /// Number of appends that have not yet reached the log file.
  size_t unflushed_records() const {
    std::lock_guard<std::mutex> lock(mu_);
    return buffer_count_;
  }

  const WalOptions& options() const { return options_; }

 private:
  Wal(std::string path, int fd, WalOptions options)
      : path_(std::move(path)), fd_(fd), options_(options) {}

  static void EncodeRecord(const WalRecord& rec, std::string* out);
  static bool DecodeRecord(const char* data, size_t len, size_t* consumed,
                           WalRecord* out);

  /// write(2) `data` (may be empty: fsync-only retry after a failed sync),
  /// then fsync. *wrote is set once the bytes reached the file — on a write
  /// failure the caller must requeue them. Called with mu_ held on the
  /// inline path and without it from the flusher (fd_ is immutable).
  Status WriteAndSync(const std::string& data, bool* wrote);

  void FlusherLoop();

  /// True when a waiter's target is not yet durable. Callers hold mu_.
  bool HasPendingWork() const {
    return !wait_targets_.empty() &&
           *wait_targets_.rbegin() > durable_lsn_.load(std::memory_order_relaxed);
  }

  std::string path_;
  int fd_;
  WalOptions options_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;     // committers -> flusher
  std::condition_variable durable_cv_;  // flusher -> committers
  std::thread flusher_;
  bool stop_ = false;
  /// Set while the flusher holds the fd without mu_ (its write/fsync);
  /// Scan/Truncate wait for it to clear before touching the file.
  bool io_in_flight_ = false;
  Lsn next_lsn_ = 1;
  std::string buffer_;  // encoded records not yet written to the file
  size_t buffer_count_ = 0;
  std::atomic<Lsn> durable_lsn_{0};
  /// Outstanding WaitDurable targets; the max element is the flusher's work
  /// signal (failed waiters remove themselves, so a persistent I/O error
  /// cannot spin the flusher).
  std::multiset<Lsn> wait_targets_;
  /// Batch-failure delivery: each failed attempt bumps the sequence number;
  /// a waiter whose LSN is covered by flush_fail_upto_ takes the status.
  uint64_t flush_fail_seq_ = 0;
  Status flush_fail_status_;
  Lsn flush_fail_upto_ = 0;
  /// Non-empty once a crash fault fired on the flusher thread: the simulated
  /// process death is re-thrown on the committer threads (see fault_registry.h
  /// — a crash escaping a background thread would terminate for real).
  std::string crash_point_;
};

}  // namespace reach
