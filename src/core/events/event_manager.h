// EventManager: the collection of REACH ECA-managers (Figure 2).
//
// It is itself a policy manager on the Open OODB meta bus: sentry
// announcements that match a registered event type become primitive event
// occurrences. Each registered type has a per-type manager holding its
// listeners (rule firing, owned by the rule engine), the downstream
// compositors its occurrences feed, and its local history.
//
// Primitive processing is synchronous — the detecting thread fires the
// listeners (so immediate rules finish before the application gets the
// go-ahead) — while composition runs asynchronously on a small pool
// (§6.4's key design decision), unless configured inline for measurement.
//
// Hot-path concurrency (docs/EVENTS.md): the per-type state is published
// as an immutable snapshot (RCU-style) loaded with one atomic operation in
// Signal — no lock, no vector copies. Definition-time writers (Define*,
// AddEventListener) copy-on-write and republish. Per-transaction
// bookkeeping (pending history, milestone markers, active set) is striped
// over txn % kTxnShards so concurrent transactions never serialize on one
// mutex, and composition fans out through a work-stealing pool, one
// enqueue per occurrence carrying its downstream compositor list.
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "common/work_stealing_pool.h"
#include "core/events/compositor.h"
#include "core/events/event.h"
#include "core/events/event_batch.h"
#include "core/events/event_durability.h"
#include "core/events/event_history.h"
#include "core/events/event_registry.h"
#include "core/events/temporal_scheduler.h"
#include "oodb/database.h"

namespace reach {

struct EventManagerOptions {
  /// How composite events are fed from the detecting thread (§6.4): true
  /// (the REACH architecture) hands them to a work-stealing pool of
  /// `composition_threads` workers; false runs compositors inline in the
  /// detecting thread (bench E2's blocking baseline).
  bool async_composition = true;
  size_t composition_threads = 2;
  size_t history_capacity = 4096;
  /// Background merge of committed events into the global history.
  bool maintain_global_history = true;
  /// Log cross-transaction composite state to the WAL (docs/EVENTS.md
  /// "Durability & recovery"): occurrences feeding cross-txn compositors
  /// are appended at Signal time through the group-commit path, partial
  /// state is checkpointed, and DefineComposite replays checkpoint + tail
  /// after a restart.
  bool durable_history = true;
  /// Auto-checkpoint compositor state after this many logged occurrences
  /// (0 disables; explicit CheckpointEventState still works).
  uint64_t history_checkpoint_interval = 256;
  /// Batched pipeline (docs/EVENTS.md "Batched pipeline"): Signal admits
  /// composition-bound occurrences into per-thread SoA batches flushed on
  /// size / coupling-boundary / end-of-transaction triggers, and the
  /// work-stealing pool moves them as whole batches. Occurrences that need
  /// synchronous semantics — listener-bearing types (immediate coupling),
  /// durable cross-txn participants, temporal events, composite
  /// completions — always take the single-occurrence path. `false` is the
  /// latency mode: every occurrence dispatches individually, exactly the
  /// pre-batching pipeline. Inline composition never batches.
  bool batch_mode = true;
  /// Admission-buffer capacity; a full buffer flushes (the size trigger).
  size_t batch_max_events = 64;
};

class EventManager : public PolicyManager {
 public:
  using EventCallback = std::function<void(const EventOccurrencePtr&)>;

  EventManager(Database* db, EventManagerOptions options = {});
  ~EventManager() override;

  std::string name() const override { return "REACH ECA managers"; }

  EventRegistry* registry() { return &registry_; }
  Database* db() { return db_; }

  // -- Event type definition (registry + wiring + bus subscription) -------

  Result<EventTypeId> DefineMethodEvent(const std::string& name,
                                        const std::string& class_name,
                                        const std::string& method,
                                        bool after = true);
  Result<EventTypeId> DefineStateChangeEvent(const std::string& name,
                                             const std::string& class_name,
                                             const std::string& attr);
  Result<EventTypeId> DefineFlowEvent(const std::string& name,
                                      SentryKind kind,
                                      const std::string& class_name = "");
  Result<EventTypeId> DefineAbsoluteEvent(const std::string& name,
                                          Timestamp fire_at);
  Result<EventTypeId> DefinePeriodicEvent(const std::string& name,
                                          Timestamp period_us);
  Result<EventTypeId> DefineRelativeEvent(const std::string& name,
                                          EventTypeId anchor,
                                          Timestamp delay_us);
  Result<EventTypeId> DefineMilestone(const std::string& name,
                                      EventTypeId marker,
                                      Timestamp deadline_us);
  Result<EventTypeId> DefineComposite(
      const std::string& name, EventExprPtr expr, CompositeScope scope,
      ConsumptionPolicy policy = ConsumptionPolicy::kChronicle,
      Timestamp validity_us = 0);

  // -- Detection-side interface -------------------------------------------

  /// Rule engine attachment: called synchronously for every occurrence of
  /// `type` (detection thread for primitives, composition thread for
  /// composites).
  void AddEventListener(EventTypeId type, EventCallback callback);

  /// Inject an occurrence (used internally, by tests, and by workload
  /// generators). Stamps sequence (and timestamp if zero).
  void Signal(std::shared_ptr<EventOccurrence> occ);

  /// Raise a registered event type explicitly (the paper's "explicit user
  /// signals can be modelled as method events").
  Status Raise(EventTypeId type, TxnId txn, std::vector<Value> params = {});

  /// Bus entry point: sentry announcements + transaction lifecycle.
  void OnEvent(const SentryEvent& event) override;

  /// Drain the asynchronous composition queue (pre-commit barrier so
  /// deferred rules see a complete picture). Drained = all composition
  /// queues empty and all workers idle, then the history merge likewise.
  void Quiesce();

  // -- Durable event history ----------------------------------------------

  /// Write an event-history checkpoint: the sequence high-water mark plus
  /// every cross-txn compositor's partial state, flushed to the WAL. Busy
  /// when logged occurrences are still being composed (the checkpoint would
  /// silently drop them from the replay tail) or recovered completions have
  /// not been re-signalled yet — retry after Quiesce.
  Status CheckpointEventState();

  /// Signal composite completions reconstructed by replay whose firing the
  /// crash pre-empted. Runs once per recovery batch; invoked from Quiesce
  /// and lazily from the first Signal so listeners attached after
  /// DefineComposite still observe them.
  void CompleteRecovery();

  /// Force buffered event-history records to stable storage.
  Status FlushEventLog();

  /// Last event-history append/checkpoint failure (OK when healthy). The
  /// history degrades gracefully: detection continues, durability is lost.
  Status history_status() const;

  uint64_t history_logged() const {
    return history_log_ ? history_log_->logged() : 0;
  }
  uint64_t history_replayed() const {
    return replayed_.load(std::memory_order_relaxed);
  }

  // -- Introspection --------------------------------------------------------

  GlobalHistory* global_history() { return &global_history_; }
  const LocalHistory* HistoryOf(EventTypeId type) const;
  const Compositor* CompositorOf(EventTypeId composite) const;
  TemporalScheduler* scheduler() { return &scheduler_; }

  /// Total partially composed events across all compositors.
  size_t LivePartials() const;

  uint64_t signaled_count() const { return signaled_.load(); }
  uint64_t composite_count() const { return composed_.load(); }

  /// Snapshot republish count (dispatch-table copy-on-write writes).
  uint64_t dispatch_republish_count() const { return republished_.load(); }

  /// Tasks stolen across composition worker queues (0 when composing
  /// inline).
  uint64_t composition_steal_count() const {
    return steal_pool_ ? steal_pool_->steal_count() : 0;
  }

  /// Composition tasks currently queued across all worker queues (0
  /// inline). Producers can poll this for backpressure.
  size_t composition_queue_depth() const {
    return steal_pool_ ? steal_pool_->QueueDepth() : 0;
  }

  /// Occurrences admitted to per-thread batch buffers but not yet flushed
  /// to the composition pool (0 in latency mode). Tests use this to pin
  /// down the flush triggers; it is not a hot-path API (walks all buffers).
  size_t batched_pending() const;

  /// Flush every thread's admission buffer to the composition pool (the
  /// EOT trigger runs this; Quiesce loops it until the cascade dies out).
  /// Returns the number of occurrences dispatched.
  size_t FlushBatches();

 private:
  /// Immutable per-type dispatch state. Never mutated after publication —
  /// writers clone, edit the clone, and republish the enclosing snapshot.
  struct DispatchTable {
    const EventDescriptor* desc = nullptr;
    std::vector<EventCallback> listeners;
    std::vector<Compositor*> downstream;  // compositors fed by this type
    // Relative temporal events anchored at this type, precomputed so the
    // steady-state Signal path never queries the registry.
    std::vector<const EventDescriptor*> relative_anchored;
    std::shared_ptr<LocalHistory> history;  // shared across republishes
    /// This type feeds a cross-txn compositor: Signal appends each
    /// occurrence to the durable event history before dispatching it.
    bool log_occurrences = false;
  };
  using DispatchTablePtr = std::shared_ptr<const DispatchTable>;

  /// One atomic load in Signal yields the whole dispatch state: the
  /// per-type tables and the flat compositor list EOT sweeps iterate.
  struct DispatchSnapshot {
    std::unordered_map<EventTypeId, DispatchTablePtr> tables;
    std::vector<Compositor*> compositors;
  };
  using SnapshotPtr = std::shared_ptr<const DispatchSnapshot>;

  /// Scalar path: one enqueue per occurrence; the table pins the downstream
  /// compositor list across republishes. Batched path: one enqueue per
  /// (admission batch, downstream compositor) — the batch is shared across
  /// the flush's tasks, and per-compositor tasks keep independent
  /// compositors stealable. Compositors outlive the manager's pools, so the
  /// raw pointer is safe in-flight.
  struct ComposeTask {
    EventOccurrencePtr occ;
    DispatchTablePtr table;
    std::shared_ptr<const EventBatch> batch;  // non-null = batched task
    Compositor* compositor = nullptr;         // batched task's target
  };

  // -- Copy-on-write publication (all require publish_mu_) ----------------

  SnapshotPtr LoadSnapshot() const {
    return dispatch_.load(std::memory_order_acquire);
  }
  /// Clone the current snapshot for mutation.
  std::shared_ptr<DispatchSnapshot> CloneSnapshot() const;
  /// Find-or-create a mutable clone of `id`'s table inside `snap`.
  DispatchTable* MutableTable(DispatchSnapshot* snap, EventTypeId id);
  void PublishSnapshot(std::shared_ptr<DispatchSnapshot> snap);

  /// Create and publish the per-type table (must not exist yet).
  void CreateManager(EventTypeId id);

  /// Deliver to one compositor and recursively signal completions.
  void Compose(Compositor* compositor, const EventOccurrencePtr& occ);

  // -- Batched pipeline (docs/EVENTS.md "Batched pipeline") ---------------

  /// Per-thread admission buffer. `mu` guards the batch itself (owner
  /// appends vs. an EOT/Quiesce flusher swapping it out); `flush_mu` is
  /// held across dispatch so two flushes of one buffer cannot reorder its
  /// batches (per-thread admission order is the order compositors see).
  struct BatchBuffer {
    std::mutex mu;
    std::mutex flush_mu;
    EventBatch batch;
  };

  /// This thread's buffer for this manager (created and registered on
  /// first use; cached in a thread-local keyed by manager identity).
  BatchBuffer* LocalBuffer();

  /// Append to the calling thread's buffer; flushes on the size trigger.
  void BatchAdmit(const EventOccurrencePtr& occ);

  /// Swap out and dispatch one buffer. Returns occurrences dispatched.
  size_t FlushBuffer(BatchBuffer* buf);

  /// Dispatch a swapped-out batch: one snapshot load, one table lookup per
  /// type run, then one pool enqueue per distinct downstream compositor
  /// (SubmitBatch — one queue lock for all of them).
  void DispatchBatch(EventBatch batch);

  /// Worker side: feed `compositor` the batch elements its event
  /// expression selects (EvalBatch), then signal completions.
  void ComposeBatch(Compositor* compositor, const EventBatch& batch);

  /// Restore a freshly created cross-txn compositor from the recovered
  /// checkpoint state and re-feed the logged tail (publish_mu_ held; the
  /// compositor is not yet published, so feeds are uncontended).
  Status RestoreAndReplay(Compositor* compositor, const EventDescriptor* desc);

  /// Downstream composition of `occ` finished: release the in-flight count
  /// that holds checkpoints off, and opportunistically auto-checkpoint.
  void FinishFeed(const EventOccurrencePtr& occ);

  void RecordHistoryFailure(const Status& status);

  void HandleTxnEnd(TxnId txn, bool committed);

  /// Milestone support.
  void OnTxnBegin(TxnId txn);

  Database* db_;
  EventManagerOptions options_;
  /// batch_mode resolved against async_composition (inline never batches).
  bool batch_enabled_ = false;
  /// All threads' admission buffers, for the EOT/Quiesce flush sweep.
  /// Owned here; thread-locals hold weak_ptrs so a dead manager's buffers
  /// never dangle.
  std::vector<std::shared_ptr<BatchBuffer>> batch_buffers_;
  mutable std::mutex batch_buffers_mu_;
  EventRegistry registry_;
  TemporalScheduler scheduler_;
  /// Composition workers; null when composing inline.
  std::unique_ptr<WorkStealingPool<ComposeTask>> steal_pool_;
  std::unique_ptr<ThreadPool> history_pool_;

  std::atomic<SnapshotPtr> dispatch_;
  mutable std::mutex publish_mu_;  // serializes writers; readers never take it
  // Compositor ownership (under publish_mu_); raw pointers are published in
  // snapshots. Compositors are never destroyed before the manager.
  std::unordered_map<EventTypeId, std::unique_ptr<Compositor>> compositors_;

  // Per-transaction bookkeeping, striped by txn % kTxnShards so concurrent
  // transactions stop serializing on a single mutex (the PR 4 buffer-pool
  // shard pattern).
  static constexpr size_t kTxnShards = 16;
  struct alignas(64) TxnShard {
    std::mutex mu;
    std::unordered_map<TxnId, std::vector<EventOccurrencePtr>> pending;
    // markers_reached[txn] = marker types raised in txn (milestones).
    std::unordered_map<TxnId, std::unordered_set<EventTypeId>> markers_reached;
    std::unordered_set<TxnId> active_txns;
  };
  TxnShard& ShardOf(TxnId txn) {
    return txn_shards_[static_cast<size_t>(txn) % kTxnShards];
  }
  std::array<TxnShard, kTxnShards> txn_shards_;

  // Marker bookkeeping is skipped entirely (no shard lock, no hash insert)
  // until the first milestone is defined.
  std::atomic<size_t> milestone_count_{0};

  GlobalHistory global_history_;
  std::atomic<uint64_t> signaled_{0};
  std::atomic<uint64_t> composed_{0};
  std::atomic<uint64_t> republished_{0};
  std::atomic<uint64_t> next_sequence_{1};

  // -- Durable event history ----------------------------------------------
  std::unique_ptr<EventHistoryLog> history_log_;  // null when disabled
  /// Checkpoint + tail + tombstones scanned from the WAL at construction;
  /// consumed incrementally as composites are (re)defined. Mutated only
  /// under publish_mu_.
  eventlog::RecoveredEventState recovered_;
  /// Orders occurrence appends against checkpoints: Signal logs under a
  /// shared lock, CheckpointEventState verifies quiescence under the
  /// exclusive lock, so an occurrence is never WAL-ordered before a
  /// checkpoint that missed its feed.
  mutable std::shared_mutex history_mu_;
  /// Occurrences appended to the history but not yet fully composed.
  std::atomic<uint64_t> logged_unfed_{0};
  std::atomic<uint64_t> since_checkpoint_{0};
  std::atomic<uint64_t> replayed_{0};
  /// Replayed completions (composite name, occurrence) awaiting Signal.
  std::vector<std::pair<std::string, std::shared_ptr<EventOccurrence>>>
      pending_recovered_;
  std::mutex pending_mu_;
  std::atomic<bool> recovery_pending_{false};
  mutable std::mutex status_mu_;
  Status history_status_;
};

}  // namespace reach
