// Central manifest of named fault points. Every REACH_FAULT_POINT call site
// uses one of these constants, and the registry pre-registers the whole
// list, so torture suites can enumerate every point without first having to
// drive execution through it.
//
// Naming scheme: `component.operation[.phase]` — e.g. `wal.flush.fsync` is
// the phase of Wal::Flush between the buffered write and the fsync. See
// docs/TESTING.md.
#pragma once

namespace reach::faults {

// -- DiskManager -----------------------------------------------------------
inline constexpr const char* kDiskReadPage = "disk.read_page";
inline constexpr const char* kDiskWritePage = "disk.write_page";
inline constexpr const char* kDiskAllocatePage = "disk.allocate_page";
inline constexpr const char* kDiskSync = "disk.sync";
/// Batched path (DiskManager::ReadPages/WritePages): `submit` fires before
/// the batch's pages are read or written, `complete` after the last one —
/// both fire even for empty batches, so every checkpoint/readahead crosses
/// them.
inline constexpr const char* kDiskBackendSubmit = "disk.backend.submit";
inline constexpr const char* kDiskBackendComplete = "disk.backend.complete";

// -- Wal -------------------------------------------------------------------
inline constexpr const char* kWalAppend = "wal.append";
inline constexpr const char* kWalFlushWrite = "wal.flush.write";
inline constexpr const char* kWalFlushFsync = "wal.flush.fsync";
inline constexpr const char* kWalTruncate = "wal.truncate";
/// Start of a group-commit batch attempt, evaluated on the flusher thread.
/// An injected error fails every WaitDurable waiter of the batch with the
/// same status; an injected crash simulates the process dying mid-batch
/// (rethrown on the committer threads — see Wal::FlusherLoop).
inline constexpr const char* kWalFlusherBatch = "wal.flusher.batch";

// -- Durable event history (docs/EVENTS.md "Durability & recovery") --------
/// Appending one cross-txn occurrence record at Signal time.
inline constexpr const char* kEventHistoryAppend = "wal.event_history.append";
/// Writing a compositor partial-state checkpoint record.
inline constexpr const char* kEventHistoryCheckpoint =
    "wal.event_history.checkpoint";
/// Replaying checkpoint + tail into a compositor at DefineComposite time.
inline constexpr const char* kEventHistoryReplay = "wal.event_history.replay";
/// Re-appending surviving event records across a log truncation.
inline constexpr const char* kEventHistoryCarryover =
    "wal.event_history.carryover";

// -- BufferPool ------------------------------------------------------------
inline constexpr const char* kBufFetch = "bufferpool.fetch";
inline constexpr const char* kBufEvictWriteback = "bufferpool.evict.writeback";
inline constexpr const char* kBufFlushPage = "bufferpool.flush_page";
inline constexpr const char* kBufFlushAll = "bufferpool.flush_all";

// -- TransactionManager ----------------------------------------------------
inline constexpr const char* kTxnBegin = "txn.begin";
inline constexpr const char* kTxnCommitEntry = "txn.commit.entry";
inline constexpr const char* kTxnCommitForce = "txn.commit.force";
inline constexpr const char* kTxnAbortEntry = "txn.abort.entry";

// -- Query executor --------------------------------------------------------
/// Start of one extent-scan morsel (both the serial fallback and parallel
/// workers cross it). An injected error fails the whole query with that
/// status — no partial rows are returned. On a parallel worker an injected
/// crash is caught and rethrown on the thread that issued the query; the
/// serial path throws on the caller directly.
inline constexpr const char* kQueryMorsel = "query.morsel";

// -- RuleEngine ------------------------------------------------------------
inline constexpr const char* kRuleDeferredFlush = "rule.deferred.flush";
inline constexpr const char* kRuleSubtxnExec = "rule.subtxn.exec";
inline constexpr const char* kRuleDetachedExec = "rule.detached.exec";

inline constexpr const char* kAll[] = {
    kDiskReadPage,    kDiskWritePage,     kDiskAllocatePage, kDiskSync,
    kDiskBackendSubmit, kDiskBackendComplete,
    kWalAppend,       kWalFlushWrite,     kWalFlushFsync,    kWalTruncate,
    kWalFlusherBatch,
    kEventHistoryAppend, kEventHistoryCheckpoint, kEventHistoryReplay,
    kEventHistoryCarryover,
    kBufFetch,        kBufEvictWriteback, kBufFlushPage,     kBufFlushAll,
    kTxnBegin,        kTxnCommitEntry,    kTxnCommitForce,   kTxnAbortEntry,
    kQueryMorsel,
    kRuleDeferredFlush, kRuleSubtxnExec,  kRuleDetachedExec,
};

}  // namespace reach::faults
