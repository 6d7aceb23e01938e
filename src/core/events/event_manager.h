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
// mutex, and composition runs on keyed FIFO lanes: one task per occurrence
// for its single-transaction compositors, on its root transaction's lane,
// and one per cross-transaction compositor, on that compositor's lane.
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

#include "common/lane_pool.h"
#include "common/thread_pool.h"
#include "core/events/compositor.h"
#include "core/events/event.h"
#include "core/events/event_durability.h"
#include "core/events/event_history.h"
#include "core/events/event_registry.h"
#include "core/events/temporal_scheduler.h"
#include "oodb/database.h"

namespace reach {

struct EventManagerOptions {
  /// How composite events are fed from the detecting thread (§6.4): true
  /// (the REACH architecture) hands them to `composition_threads` keyed
  /// FIFO lanes; false runs compositors inline in the detecting thread
  /// (bench E2's blocking baseline).
  bool async_composition = true;
  size_t composition_threads = 2;
  /// Occurrences kept per event type, in both the local histories and the
  /// global history.
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

  /// Drain the asynchronous composition lanes (pre-commit barrier so
  /// deferred rules see a complete picture). Drained = all lanes empty and
  /// all workers idle, then the history merge likewise.
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

  /// Composition tasks currently queued across all lanes (0 inline).
  /// Producers can poll this for backpressure.
  size_t composition_queue_depth() const {
    return lanes_ ? lanes_->QueueDepth() : 0;
  }

 private:
  /// Immutable per-type dispatch state. Never mutated after publication —
  /// writers clone, edit the clone, and republish the enclosing snapshot.
  struct DispatchTable {
    const EventDescriptor* desc = nullptr;
    std::vector<EventCallback> listeners;
    // Compositors fed by this type, split by scope at definition time: the
    // single-txn ones share one task on the occurrence's transaction lane,
    // each cross-txn one gets a task on its own lane.
    std::vector<Compositor*> single_txn;
    std::vector<Compositor*> cross_txn;
    // Relative temporal events anchored at this type, precomputed so the
    // steady-state Signal path never queries the registry.
    std::vector<const EventDescriptor*> relative_anchored;
    std::shared_ptr<LocalHistory> history;  // shared across republishes
    /// This type feeds a cross-txn compositor: Signal appends each
    /// occurrence to the durable event history before dispatching it.
    bool log_occurrences = false;
  };

  /// One atomic load in Signal yields the whole dispatch state: the
  /// per-type tables and the single-txn compositors EOT sweeps iterate.
  struct DispatchSnapshot {
    std::unordered_map<EventTypeId, std::shared_ptr<const DispatchTable>>
        tables;
    std::vector<Compositor*> single_txn;
  };

  /// One lane task. With `occ` set it feeds `compositor` (a cross-txn
  /// compositor) or, when that is null, every single-txn compositor of
  /// `table`; without `occ` it is the EOT sweep of `txn`. Tables and
  /// compositors live until the manager dies, so raw pointers are safe
  /// in flight.
  struct ComposeTask {
    EventOccurrencePtr occ;
    const DispatchTable* table = nullptr;
    Compositor* compositor = nullptr;
    TxnId txn = kNoTxn;
  };

  // -- Copy-on-write publication (all require publish_mu_) ----------------

  const DispatchSnapshot* LoadSnapshot() const {
    return dispatch_.load(std::memory_order_acquire);
  }
  /// Clone the current snapshot for mutation.
  std::unique_ptr<DispatchSnapshot> CloneSnapshot() const;
  /// Find-or-create a mutable clone of `id`'s table inside `snap`.
  DispatchTable* MutableTable(DispatchSnapshot* snap, EventTypeId id);
  void PublishSnapshot(std::unique_ptr<DispatchSnapshot> snap);

  /// Create and publish the per-type table (must not exist yet).
  void CreateManager(EventTypeId id);

  /// Signal with the composition decision made: `compose_inline` feeds the
  /// downstream compositors on the calling thread (inline mode, and
  /// completions raised on a lane, which cascade depth-first where they
  /// arose) instead of submitting lane tasks.
  void Dispatch(std::shared_ptr<EventOccurrence> occ, bool compose_inline);

  /// Deliver to one compositor and recursively signal completions.
  void Compose(Compositor* compositor, const EventOccurrencePtr& occ);

  /// Lane worker body for one ComposeTask.
  void RunTask(ComposeTask& task);

  /// Single-transaction composition state dies with the transaction (§3.3).
  void SweepTxn(TxnId txn);

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
  EventRegistry registry_;
  TemporalScheduler scheduler_;
  /// Composition lanes; null when composing inline.
  std::unique_ptr<LanePool<ComposeTask>> lanes_;
  std::unique_ptr<ThreadPool> history_pool_;

  /// The current snapshot. Superseded snapshots are retired to
  /// `snapshots_`, not freed, so a reader's plain pointer stays valid
  /// without reference counting; republishing happens only at definition
  /// time, which bounds what they hold.
  std::atomic<const DispatchSnapshot*> dispatch_{nullptr};
  std::vector<std::unique_ptr<const DispatchSnapshot>> snapshots_;
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
