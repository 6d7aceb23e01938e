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
#include "storage/disk_backend.h"

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

/// Group-commit policy knobs. Defaults come from the REACH_WAL environment
/// variable (grammar mirroring REACH_METRICS, entries separated by ',' or
/// ';'): "group=on|off", "max_batch_bytes=<N>", "max_batch_delay_us=<N>",
/// "adaptive[=on|off]". Bare "on"/"off" toggles group commit.
struct WalOptions {
  /// Commit piggybacking via the background flusher thread. Off = the
  /// classic inline path: every Flush() does its own write+fsync.
  bool group_commit = true;
  /// When committers arrive back-to-back (a flush request is already
  /// pending as the previous batch completes), the flusher may linger up to
  /// max_batch_delay_us for more joiners, but never past max_batch_bytes of
  /// buffered records. 0 delay = pure piggybacking: whatever accumulated
  /// while the previous fsync ran forms the next batch.
  size_t max_batch_bytes = 1u << 20;
  uint32_t max_batch_delay_us = 0;
  /// Drive the coalescing delay from the observed batch size instead of the
  /// fixed max_batch_delay_us: near-empty batches under sustained load grow
  /// the delay (more joiners per fsync), full batches shrink it back (no
  /// point delaying committers the fsync already coalesces). The current
  /// value is visible as the storage.wal.adaptive_delay_us gauge and via
  /// current_batch_delay_us(). max_batch_delay_us, when nonzero, caps the
  /// adaptive delay (default cap 200us).
  bool adaptive_delay = false;

  static WalOptions FromEnv();
  /// Parse a REACH_WAL spec string (exposed for tests; FromEnv caches).
  static WalOptions Parse(const char* spec);
};

class Wal {
 public:
  ~Wal();

  /// Open (creating if necessary) the log file at `path`. Starts the
  /// flusher thread when options.group_commit is set. `backend` selects the
  /// disk backend used for fused append+fsync submissions (see
  /// WriteAndSync); kDefault defers to REACH_STORAGE.
  static Result<std::unique_ptr<Wal>> Open(
      const std::string& path, const WalOptions& options = WalOptions::FromEnv(),
      DiskBackendKind backend = DiskBackendKind::kDefault);

  /// Append a record; assigns and returns its LSN. Buffered until flushed.
  Result<Lsn> Append(WalRecord record);

  /// Force everything appended so far to stable storage. With group commit
  /// this is WaitDurable(last appended LSN); without, an inline write+fsync.
  Status Flush();

  /// Block until every record with LSN <= lsn is on stable storage. A failed
  /// batch write/fsync fails every waiter of that batch with the same
  /// status; waiters that arrive afterwards trigger a retry.
  Status WaitDurable(Lsn lsn);

  /// Alias of WaitDurable for call sites that read better as a flush.
  Status FlushUpTo(Lsn lsn) { return WaitDurable(lsn); }

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
  /// redo can evict a dirty page, whose pre-write hook calls FlushUpTo).
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

  /// The coalescing delay the flusher would apply to the next back-to-back
  /// batch: the adaptive value when options().adaptive_delay is set, the
  /// fixed max_batch_delay_us otherwise.
  uint32_t current_batch_delay_us() const {
    return options_.adaptive_delay
               ? adaptive_delay_us_.load(std::memory_order_relaxed)
               : options_.max_batch_delay_us;
  }

  /// The disk backend's name ("posix", "async", "uring") — what fused
  /// appends actually route through after fallback resolution.
  const char* backend_name() const { return backend_->name(); }

 private:
  Wal(std::string path, int fd, WalOptions options,
      std::unique_ptr<DiskBackend> backend)
      : path_(std::move(path)),
        fd_(fd),
        options_(options),
        backend_(std::move(backend)) {}

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
  /// Disk backend for the flush path. Only consulted when it offers a fused
  /// append (io_uring linked write+fsync) and fault injection is idle;
  /// otherwise WriteAndSync keeps the classic write-then-fsync sequence with
  /// its wal.flush.{write,fsync} fault points.
  std::unique_ptr<DiskBackend> backend_;
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
  /// Coalescing delay chosen by the adaptive policy (flusher writes, anyone
  /// reads). Starts at 0 = pure piggybacking until load proves otherwise.
  std::atomic<uint32_t> adaptive_delay_us_{0};
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
