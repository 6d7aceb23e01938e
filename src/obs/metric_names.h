// Central manifest of well-known metric names (the metric catalog —
// documented in docs/OBSERVABILITY.md). Call sites cache the pointer once:
//
//   obs::Counter* fsyncs =
//       obs::MetricsRegistry::Instance().counter(obs::kWalFsyncCount);
//
// Naming scheme: `component.measurement[_unit]` — `_ns` suffixes mark
// nanosecond latency histograms. Dynamic tags (coupling mode, stage) are
// appended as a final `.tag` segment.
#pragma once

namespace reach::obs {

// -- Storage ---------------------------------------------------------------
inline constexpr const char* kWalAppendCount = "storage.wal.append";
inline constexpr const char* kWalFsyncCount = "storage.wal.fsync";
inline constexpr const char* kWalFsyncNs = "storage.wal.fsync_ns";
inline constexpr const char* kWalFlushedBytes = "storage.wal.flushed_bytes";
/// Group commit: waiters released per flusher batch, time a committer spent
/// blocked in WaitDurable, and fsyncs avoided by piggybacking (released
/// waiters beyond the first share one fsync).
inline constexpr const char* kWalGroupSize = "storage.wal.group.size";
inline constexpr const char* kWalGroupWaitNs = "storage.wal.group.wait_ns";
inline constexpr const char* kWalFsyncSaved = "storage.wal.fsync_saved";
inline constexpr const char* kBufHit = "storage.bufferpool.hit";
inline constexpr const char* kBufMiss = "storage.bufferpool.miss";
inline constexpr const char* kBufEvictWriteback =
    "storage.bufferpool.evict_writeback";
/// Time spent blocked on the contended buffer pool mutex (miss path,
/// eviction, flush and readahead; hits take no lock).
inline constexpr const char* kBufLockWaitNs =
    "storage.bufferpool.lock_wait_ns";
/// Percent of pool frames currently dirty (gauge).
inline constexpr const char* kBufDirtyRatio = "storage.bufferpool.dirty_ratio";
/// Always 0: nothing records this counter. The name stays because the
/// end-to-end benchmark (bench/e2e/layers.cc) reads it.
inline constexpr const char* kBufEvictSyncFallback =
    "storage.bufferpool.evict.sync_fallback";
/// Batched page I/O (DiskManager::ReadPages/WritePages): pages per batched
/// call (count histogram), pages in the last batch (gauge), and wall time of
/// one batched call.
inline constexpr const char* kDiskBatchPages = "storage.disk.batch.pages";
inline constexpr const char* kDiskSubmitDepth = "storage.disk.submit_depth";
inline constexpr const char* kDiskCompleteNs = "storage.disk.complete_ns";

// -- Transactions ----------------------------------------------------------
inline constexpr const char* kTxnBegun = "txn.begun";
inline constexpr const char* kTxnCommitted = "txn.committed";
inline constexpr const char* kTxnAborted = "txn.aborted";
inline constexpr const char* kTxnCommitNs = "txn.commit_ns";

// -- OODB meta bus / sentries ----------------------------------------------
inline constexpr const char* kBusAnnounceUseful = "oodb.bus.announce.useful";
inline constexpr const char* kBusAnnounceUseless =
    "oodb.bus.announce.useless";
inline constexpr const char* kSentryCalls = "oodb.sentry.calls";
inline constexpr const char* kSentryAnnounced = "oodb.sentry.announced";

// -- Event pipeline (see pipeline_span.h) ----------------------------------
inline constexpr const char* kEventsSignaled = "events.signaled";
inline constexpr const char* kEventsComposed = "events.composed";
inline constexpr const char* kCompositorFed = "events.compositor.fed";
inline constexpr const char* kCompositorCompletions =
    "events.compositor.completions";
inline constexpr const char* kCompositorExpired =
    "events.compositor.expired_partials";
inline constexpr const char* kCompositorDiscardedEot =
    "events.compositor.discarded_at_eot";
/// Time spent blocked on a contended compositor instance-map stripe mutex
/// (single-txn instances stripe over txn % kStripes; near-zero unless many
/// transactions hash to the same stripe or a cross-txn compositor is hot).
inline constexpr const char* kCompositorLockWaitNs =
    "events.compositor.lock_wait_ns";
/// Composition lanes: tasks queued across all lanes at the last enqueue
/// (gauge).
inline constexpr const char* kCompositionQueueDepth =
    "events.composition.queue_depth";
/// Copy-on-write republishes of the snapshot dispatch table (event/listener
/// /compositor definitions; the steady-state Signal path never writes).
inline constexpr const char* kDispatchRepublish = "events.dispatch.republish";
/// No longer recorded: the batched pipeline and the work-stealing pool are
/// gone (docs/EVENTS.md "Composition lanes"). The names stay because the
/// end-to-end benchmark still reads them; they read empty or 0.
inline constexpr const char* kCompositionSteals = "events.composition.steals";
inline constexpr const char* kEventsBatchSize = "events.batch.size";
inline constexpr const char* kEventsBatchFallbacks = "events.batch.fallbacks";
/// Durable event history: cross-txn occurrences logged to the WAL, logged
/// occurrences re-fed into compositors during recovery replay, cumulative
/// bytes of compositor-state checkpoint records, and append/checkpoint
/// failures
/// that were absorbed on the Signal path (surfaced via
/// EventManager::history_status()).
inline constexpr const char* kEventHistoryLogged = "events.history.logged";
inline constexpr const char* kEventHistoryReplayed = "events.history.replayed";
inline constexpr const char* kEventHistoryCheckpointBytes =
    "events.history.checkpoint_bytes";
inline constexpr const char* kEventHistoryLogFailures =
    "events.history.log_failures";

/// Sentry announcement -> EventManager::Signal entry (detection latency).
inline constexpr const char* kSpanSentryToSignal =
    "pipeline.sentry_to_signal_ns";
/// Signal entry -> synchronous listeners (rule firing) done: the
/// application's go-ahead latency for immediate rules.
inline constexpr const char* kSpanSignalToDispatch =
    "pipeline.signal_to_dispatch_ns";
/// Leaf detection -> composite completion raised by a compositor (includes
/// the async composition queue wait).
inline constexpr const char* kSpanSignalToCompose =
    "pipeline.signal_to_compose_ns";

// -- Query executor --------------------------------------------------------
/// Executor wall time per query (plan already built; includes the parallel
/// fan-out and merge), morsels per extent-scan query (a count histogram,
/// not nanoseconds), degree of parallelism of the last query (gauge; 1 =
/// serial fallback or index plan), and objects examined (counter).
inline constexpr const char* kQueryExecNs = "query.exec_ns";
inline constexpr const char* kQueryMorsels = "query.morsels";
inline constexpr const char* kQueryParallelWorkers = "query.parallel_workers";
inline constexpr const char* kQueryRowsScanned = "query.rows_scanned";
/// Whole QueryPm::Execute span: plan + execute (parse excluded when the
/// caller hands over a pre-parsed statement).
inline constexpr const char* kSpanQueryExec = "pipeline.query_exec_ns";

// -- Rules -----------------------------------------------------------------
inline constexpr const char* kRulesImmediateRuns = "rules.immediate_runs";
inline constexpr const char* kRulesDeferredRuns = "rules.deferred_runs";
inline constexpr const char* kRulesDetachedRuns = "rules.detached_runs";
inline constexpr const char* kRulesFailures = "rules.failures";
inline constexpr const char* kRulesDependencySkips = "rules.dependency_skips";
inline constexpr const char* kRulesDeferredRounds = "rules.deferred_rounds";
/// Per coupling mode: "rules.exec_ns.<mode>" (condition+action execution)
/// and "rules.fire_lag_ns.<mode>" (event detection -> execution start).
inline constexpr const char* kRulesExecNsPrefix = "rules.exec_ns.";
inline constexpr const char* kRulesFireLagNsPrefix = "rules.fire_lag_ns.";
/// Per-rule breakdown: "rules.exec_ns.rule.<name>". Bounded cardinality —
/// at most kPerRuleHistogramCap rules hold a histogram at a time; when the
/// cap is full, a newly executing rule evicts the least-recently-executed
/// holder (see rule_engine.cc), so the hot set is always localizable
/// without enabling the full RuleTrace.
inline constexpr const char* kRulesExecNsRulePrefix = "rules.exec_ns.rule.";
/// Evict-and-replace admissions above: incremented each time a cold rule's
/// per-rule histogram slot is handed to a newly executing rule.
inline constexpr const char* kRulesHistogramEvicted =
    "rules.histogram.evicted";

}  // namespace reach::obs
