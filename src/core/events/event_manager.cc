#include "core/events/event_manager.h"

#include <algorithm>

#include "obs/metric_names.h"
#include "obs/pipeline_span.h"
#include "testing/fault_points.h"
#include "testing/fault_registry.h"

namespace reach {

namespace {

struct EventMetrics {
  obs::Counter* signaled;
  obs::Counter* composed;
  obs::Counter* republish;
  obs::Counter* replayed;
  obs::Gauge* queue_depth;

  static const EventMetrics& Get() {
    static const EventMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
      return EventMetrics{reg.counter(obs::kEventsSignaled),
                          reg.counter(obs::kEventsComposed),
                          reg.counter(obs::kDispatchRepublish),
                          reg.counter(obs::kEventHistoryReplayed),
                          reg.gauge(obs::kCompositionQueueDepth)};
    }();
    return m;
  }
};

}  // namespace

EventManager::EventManager(Database* db, EventManagerOptions options)
    : db_(db),
      options_(options),
      scheduler_(db->clock()),
      global_history_(options_.history_capacity) {
  snapshots_.push_back(std::make_unique<const DispatchSnapshot>());
  dispatch_.store(snapshots_.back().get(), std::memory_order_release);
  if (options_.async_composition) {
    lanes_ = std::make_unique<LanePool<ComposeTask>>(
        options_.composition_threads,
        [this](ComposeTask& task) { RunTask(task); });
  }
  if (options_.durable_history && db_->storage() != nullptr) {
    Wal* wal = db_->storage()->wal();
    history_log_ = std::make_unique<EventHistoryLog>(wal, &registry_);
    // StorageManager::Open carried the surviving event records into the
    // fresh log epoch; partition them once, consume per DefineComposite.
    std::vector<WalRecord> records;
    Status st = wal->Scan([&records](WalRecord& rec) {
      if (IsEventRecord(rec.type)) records.push_back(std::move(rec));
      return Status::OK();
    });
    if (st.ok()) {
      recovered_ = eventlog::PartitionEventRecords(records);
      if (recovered_.max_sequence > 0) {
        // Fresh sequences start past everything logged before the crash so
        // completion keys (leaf sequence tuples) never collide across it.
        next_sequence_.store(recovered_.max_sequence + 1,
                             std::memory_order_relaxed);
      }
    } else {
      RecordHistoryFailure(st);
    }
  }
  // Transaction lifecycle is always needed (compositor GC, milestones,
  // the global history merge).
  db_->bus()->Subscribe(this, SentryKind::kTxnBegin);
  db_->bus()->Subscribe(this, SentryKind::kTxnCommit);
  db_->bus()->Subscribe(this, SentryKind::kTxnAbort);
  scheduler_.Start();
}

EventManager::~EventManager() {
  scheduler_.Stop();
  if (lanes_) lanes_->Shutdown();  // drains every lane
  db_->bus()->Unsubscribe(this);
}

// ---------------------------------------------------------------------------
// Snapshot publication (copy-on-write; writers hold publish_mu_)
// ---------------------------------------------------------------------------

std::unique_ptr<EventManager::DispatchSnapshot> EventManager::CloneSnapshot()
    const {
  // Shallow copy: the per-type tables are shared until a writer needs to
  // touch one (MutableTable clones that entry only).
  return std::make_unique<DispatchSnapshot>(*LoadSnapshot());
}

EventManager::DispatchTable* EventManager::MutableTable(DispatchSnapshot* snap,
                                                        EventTypeId id) {
  auto it = snap->tables.find(id);
  auto table = it == snap->tables.end()
                   ? std::make_shared<DispatchTable>()
                   : std::make_shared<DispatchTable>(*it->second);
  if (table->desc == nullptr) table->desc = registry_.Find(id);
  if (table->history == nullptr) {
    table->history = std::make_shared<LocalHistory>(options_.history_capacity);
  }
  DispatchTable* raw = table.get();
  snap->tables[id] = std::move(table);
  return raw;
}

void EventManager::PublishSnapshot(std::unique_ptr<DispatchSnapshot> snap) {
  // The superseded snapshot stays in snapshots_: readers may still hold it.
  dispatch_.store(snap.get(), std::memory_order_release);
  snapshots_.push_back(std::move(snap));
  republished_.fetch_add(1, std::memory_order_relaxed);
  EventMetrics::Get().republish->Inc();
}

void EventManager::CreateManager(EventTypeId id) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  auto snap = CloneSnapshot();
  MutableTable(snap.get(), id);
  PublishSnapshot(std::move(snap));
}

// ---------------------------------------------------------------------------
// Event type definition
// ---------------------------------------------------------------------------

Result<EventTypeId> EventManager::DefineMethodEvent(
    const std::string& name, const std::string& class_name,
    const std::string& method, bool after) {
  REACH_ASSIGN_OR_RETURN(
      EventTypeId id,
      registry_.RegisterMethodEvent(name, class_name, method, after));
  CreateManager(id);
  db_->bus()->Subscribe(
      this, after ? SentryKind::kMethodAfter : SentryKind::kMethodBefore,
      class_name, method);
  return id;
}

Result<EventTypeId> EventManager::DefineStateChangeEvent(
    const std::string& name, const std::string& class_name,
    const std::string& attr) {
  REACH_ASSIGN_OR_RETURN(
      EventTypeId id,
      registry_.RegisterStateChangeEvent(name, class_name, attr));
  CreateManager(id);
  db_->bus()->Subscribe(this, SentryKind::kStateChange, class_name, attr);
  return id;
}

Result<EventTypeId> EventManager::DefineFlowEvent(
    const std::string& name, SentryKind kind, const std::string& class_name) {
  REACH_ASSIGN_OR_RETURN(EventTypeId id,
                         registry_.RegisterFlowEvent(name, kind, class_name));
  CreateManager(id);
  switch (kind) {
    case SentryKind::kTxnBegin:
    case SentryKind::kTxnCommit:
    case SentryKind::kTxnAbort:
      break;  // already subscribed at construction
    default:
      db_->bus()->Subscribe(this, kind, class_name, "");
      break;
  }
  return id;
}

Result<EventTypeId> EventManager::DefineAbsoluteEvent(const std::string& name,
                                                      Timestamp fire_at) {
  REACH_ASSIGN_OR_RETURN(EventTypeId id,
                         registry_.RegisterAbsoluteEvent(name, fire_at));
  CreateManager(id);
  scheduler_.ScheduleAt(fire_at, [this, id](Timestamp t) {
    auto occ = std::make_shared<EventOccurrence>();
    occ->type = id;
    occ->timestamp = t;
    Signal(std::move(occ));
  });
  return id;
}

Result<EventTypeId> EventManager::DefinePeriodicEvent(const std::string& name,
                                                      Timestamp period_us) {
  REACH_ASSIGN_OR_RETURN(EventTypeId id,
                         registry_.RegisterPeriodicEvent(name, period_us));
  CreateManager(id);
  scheduler_.SchedulePeriodic(period_us, [this, id](Timestamp t) {
    auto occ = std::make_shared<EventOccurrence>();
    occ->type = id;
    occ->timestamp = t;
    Signal(std::move(occ));
  });
  return id;
}

Result<EventTypeId> EventManager::DefineRelativeEvent(const std::string& name,
                                                      EventTypeId anchor,
                                                      Timestamp delay_us) {
  REACH_ASSIGN_OR_RETURN(
      EventTypeId id, registry_.RegisterRelativeEvent(name, anchor, delay_us));
  // Publish the new type's table and refresh the anchor's precomputed
  // relative-event list in the same snapshot; wiring happens in Signal via
  // the table's relative_anchored entries.
  std::lock_guard<std::mutex> lock(publish_mu_);
  auto snap = CloneSnapshot();
  MutableTable(snap.get(), id);
  MutableTable(snap.get(), anchor)->relative_anchored =
      registry_.RelativeEventsAnchoredAt(anchor);
  PublishSnapshot(std::move(snap));
  return id;
}

Result<EventTypeId> EventManager::DefineMilestone(const std::string& name,
                                                  EventTypeId marker,
                                                  Timestamp deadline_us) {
  REACH_ASSIGN_OR_RETURN(EventTypeId id,
                         registry_.RegisterMilestone(name, marker,
                                                     deadline_us));
  CreateManager(id);
  // Opens the marker-bookkeeping gate in Signal: until the first milestone
  // exists, occurrences skip the per-txn marker insert (and its shard lock)
  // entirely.
  milestone_count_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

Result<EventTypeId> EventManager::DefineComposite(const std::string& name,
                                                  EventExprPtr expr,
                                                  CompositeScope scope,
                                                  ConsumptionPolicy policy,
                                                  Timestamp validity_us) {
  REACH_ASSIGN_OR_RETURN(
      EventTypeId id,
      registry_.RegisterComposite(name, expr, scope, policy, validity_us));
  const EventDescriptor* desc = registry_.Find(id);
  std::lock_guard<std::mutex> lock(publish_mu_);
  auto compositor = std::make_unique<Compositor>(desc);
  Compositor* raw = compositor.get();
  compositors_[id] = std::move(compositor);
  const bool durable =
      history_log_ != nullptr && scope == CompositeScope::kCrossTxn;
  if (durable) {
    // Rebuild pre-crash partial state before the compositor sees live
    // occurrences, and only then arm the expiry-tombstone listener (replay
    // must not re-log what it replays).
    REACH_RETURN_IF_ERROR(RestoreAndReplay(raw, desc));
    std::string cname = desc->name;
    raw->set_gc_listener([this, cname](Timestamp cutoff, uint64_t) {
      Status st = history_log_->LogExpiry(cname, cutoff);
      if (!st.ok()) RecordHistoryFailure(st);
    });
  }
  auto snap = CloneSnapshot();
  MutableTable(snap.get(), id);
  const bool single_txn = scope == CompositeScope::kSingleTxn;
  for (EventTypeId leaf : desc->expr->LeafTypes()) {
    DispatchTable* leaf_table = MutableTable(snap.get(), leaf);
    (single_txn ? leaf_table->single_txn : leaf_table->cross_txn)
        .push_back(raw);
    if (durable) leaf_table->log_occurrences = true;
  }
  if (single_txn) snap->single_txn.push_back(raw);
  PublishSnapshot(std::move(snap));
  return id;
}

void EventManager::AddEventListener(EventTypeId type, EventCallback callback) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  auto snap = CloneSnapshot();
  MutableTable(snap.get(), type)->listeners.push_back(std::move(callback));
  PublishSnapshot(std::move(snap));
}

// ---------------------------------------------------------------------------
// Detection / composition hot path
// ---------------------------------------------------------------------------

void EventManager::Compose(Compositor* compositor,
                           const EventOccurrencePtr& occ) {
  std::vector<EventOccurrencePtr> completions;
  compositor->Feed(occ, &completions);
  const EventDescriptor* desc = compositor->descriptor();
  for (auto& c : completions) {
    composed_.fetch_add(1, std::memory_order_relaxed);
    EventMetrics::Get().composed->Inc();
    if (history_log_ && desc->scope == CompositeScope::kCrossTxn) {
      // Tombstone first: a replay after a crash here re-detects the
      // completion instead of double-firing it.
      Status st = history_log_->LogConsumption(desc->name, *c);
      if (!st.ok()) RecordHistoryFailure(st);
    }
    // Composition latency: from detection of the leaf that completed the
    // composite (this occ) to the completion being raised — includes the
    // async composition queue wait.
    obs::RecordSpanSince(obs::PipelineSpans::Get().signal_to_compose,
                         occ->detect_ns);
    Dispatch(std::const_pointer_cast<EventOccurrence>(c),
             /*compose_inline=*/true);
  }
}

void EventManager::RunTask(ComposeTask& task) {
  if (task.occ == nullptr) {
    EndTxn(task.txn, task.committed);
    return;
  }
  if (task.compositor != nullptr) {
    Compose(task.compositor, task.occ);
  } else {
    for (Compositor* compositor : task.table->single_txn) {
      Compose(compositor, task.occ);
    }
  }
  FinishFeed(task.occ);
}

void EventManager::EndTxn(TxnId txn, bool committed) {
  // Single-transaction composition state dies with the transaction (§3.3).
  for (Compositor* compositor : LoadSnapshot()->single_txn) {
    compositor->OnTxnEnd(txn);
  }
  std::vector<EventOccurrencePtr> events;
  {
    TxnShard& shard = ShardOf(txn);
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.markers_reached.erase(txn);
    auto it = shard.pending.find(txn);
    if (it != shard.pending.end()) {
      events = std::move(it->second);
      shard.pending.erase(it);
    }
  }
  // Only committed transactions' events enter the global history.
  if (committed && !events.empty()) global_history_.Merge(std::move(events));
}

void EventManager::Signal(std::shared_ptr<EventOccurrence> occ) {
  Dispatch(std::move(occ), /*compose_inline=*/lanes_ == nullptr);
}

void EventManager::Dispatch(std::shared_ptr<EventOccurrence> occ,
                            bool compose_inline) {
  if (recovery_pending_.load(std::memory_order_acquire)) CompleteRecovery();
  occ->sequence = next_sequence_.fetch_add(1, std::memory_order_relaxed);
  if (occ->timestamp == 0) occ->timestamp = db_->clock()->Now();
  // Pipeline span bookkeeping: an occurrence arriving with a detection
  // stamp (sentry path) closes the sentry->signal stage; one without
  // (temporal, composite, explicit Raise) starts its span here.
  uint64_t signal_ns = 0;
  if (obs::MetricsEnabled()) {
    signal_ns = obs::NowNanos();
    if (occ->detect_ns != 0) {
      obs::PipelineSpans::Get().sentry_to_signal->RecordAlways(
          signal_ns > occ->detect_ns ? signal_ns - occ->detect_ns : 0);
    } else {
      occ->detect_ns = signal_ns;
    }
  }
  EventOccurrencePtr shared = occ;
  signaled_.fetch_add(1, std::memory_order_relaxed);
  EventMetrics::Get().signaled->Inc();

  // Steady state: one atomic snapshot load, zero allocations, no lock, no
  // reference count. Snapshots and their tables are never freed before the
  // manager; writers republish without disturbing us.
  const DispatchSnapshot* snap = LoadSnapshot();
  auto it = snap->tables.find(shared->type);
  if (it == snap->tables.end()) return;  // unregistered type
  const DispatchTable& table = *it->second;
  table.history->Append(shared);

  // Durable history: append before any listener or compositor sees the
  // occurrence, so a crash after this point replays it. The shared lock
  // orders the append against checkpoints (history_mu_ doc); the in-flight
  // count holds checkpoints off until downstream composition finishes.
  if (history_log_ && table.log_occurrences) {
    std::shared_lock<std::shared_mutex> history_lock(history_mu_);
    logged_unfed_.fetch_add(1, std::memory_order_acq_rel);
    Status st = history_log_->LogOccurrence(*shared);
    if (st.ok()) {
      occ->history_logged = true;
      since_checkpoint_.fetch_add(1, std::memory_order_relaxed);
    } else {
      logged_unfed_.fetch_sub(1, std::memory_order_acq_rel);
      RecordHistoryFailure(st);
    }
  }

  // Track per-transaction events for the EOT global history merge and
  // (when any milestone is defined) marker bookkeeping — striped by txn,
  // and skipped entirely when neither consumer exists.
  if (shared->txn != kNoTxn) {
    const bool track_markers =
        milestone_count_.load(std::memory_order_relaxed) > 0;
    if (options_.maintain_global_history || track_markers) {
      TxnShard& shard = ShardOf(shared->txn);
      std::lock_guard<std::mutex> lock(shard.mu);
      if (options_.maintain_global_history) {
        shard.pending[shared->txn].push_back(shared);
      }
      if (track_markers) {
        shard.markers_reached[shared->txn].insert(shared->type);
      }
    }
  } else if (options_.maintain_global_history) {
    // Temporal / cross-txn composite events commit by definition.
    global_history_.Merge({shared});
  }

  // 1. Fire the rules registered with this ECA-manager (synchronous: the
  //    go-ahead for the application waits on immediate rules only).
  for (const EventCallback& cb : table.listeners) cb(shared);
  if (signal_ns != 0 && !table.listeners.empty()) {
    // Go-ahead latency: what the detecting thread waited for synchronous
    // listener (immediate rule) processing.
    obs::RecordSpanSince(obs::PipelineSpans::Get().signal_to_dispatch,
                         signal_ns);
  }

  // 2. Propagate to the compositors of composite events containing this
  //    type. On the lanes: one task for all single-txn compositors on the
  //    root transaction's lane (temporal events, txn-less, never reach
  //    them), one task per cross-txn compositor on that compositor's lane.
  //    Each lane is FIFO, so every compositor instance sees its inputs in
  //    Signal order.
  const bool feeds_single = !table.single_txn.empty() && shared->txn != kNoTxn;
  if (compose_inline) {
    if (feeds_single) {
      for (Compositor* compositor : table.single_txn) {
        Compose(compositor, shared);
      }
    }
    for (Compositor* compositor : table.cross_txn) Compose(compositor, shared);
    FinishFeed(shared);
  } else {
    const size_t tasks = (feeds_single ? 1 : 0) + table.cross_txn.size();
    if (tasks == 0) {
      FinishFeed(shared);
    } else {
      // Each task releases one in-flight count (FinishFeed); the append
      // above took the first.
      if (shared->history_logged && tasks > 1) {
        logged_unfed_.fetch_add(tasks - 1, std::memory_order_acq_rel);
      }
      if (feeds_single) {
        lanes_->Submit(ComposeTask{shared, &table, nullptr, kNoTxn},
                       shared->txn);
      }
      for (Compositor* compositor : table.cross_txn) {
        lanes_->Submit(ComposeTask{shared, nullptr, compositor, kNoTxn},
                       compositor->descriptor()->id);
      }
      EventMetrics::Get().queue_depth->Set(
          static_cast<int64_t>(lanes_->QueueDepth()));
    }
  }

  // 3. Relative temporal events anchored at this type (precomputed in the
  //    table — the registry is not consulted on the hot path).
  for (const EventDescriptor* rel : table.relative_anchored) {
    EventTypeId rel_id = rel->id;
    scheduler_.ScheduleAt(shared->timestamp + rel->delay_us,
                          [this, rel_id](Timestamp t) {
                            auto rocc = std::make_shared<EventOccurrence>();
                            rocc->type = rel_id;
                            rocc->timestamp = t;
                            Signal(std::move(rocc));
                          });
  }
}

Status EventManager::Raise(EventTypeId type, TxnId txn,
                           std::vector<Value> params) {
  if (registry_.Find(type) == nullptr) {
    return Status::NotFound("event type " + std::to_string(type));
  }
  auto occ = std::make_shared<EventOccurrence>();
  occ->type = type;
  occ->txn = txn == kNoTxn ? kNoTxn : db_->txns()->RootOf(txn);
  occ->params = std::move(params);
  Signal(std::move(occ));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Transaction lifecycle
// ---------------------------------------------------------------------------

void EventManager::OnTxnBegin(TxnId txn) {
  // Without milestones nothing consumes the active set or markers; skip
  // the bookkeeping (HandleTxnEnd's erases tolerate absence).
  if (milestone_count_.load(std::memory_order_relaxed) == 0) return;
  {
    TxnShard& shard = ShardOf(txn);
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.active_txns.insert(txn);
  }
  // Arm milestone timers for this transaction.
  for (const EventDescriptor* m : registry_.Milestones()) {
    EventTypeId milestone_id = m->id;
    EventTypeId marker = m->marker;
    scheduler_.ScheduleAt(
        db_->clock()->Now() + m->deadline_us,
        [this, milestone_id, marker, txn](Timestamp t) {
          bool missed = false;
          {
            TxnShard& shard = ShardOf(txn);
            std::lock_guard<std::mutex> lock(shard.mu);
            if (shard.active_txns.contains(txn)) {
              auto it = shard.markers_reached.find(txn);
              missed = (it == shard.markers_reached.end()) ||
                       !it->second.contains(marker);
            }
          }
          if (missed) {
            auto occ = std::make_shared<EventOccurrence>();
            occ->type = milestone_id;
            occ->timestamp = t;
            occ->params = {Value(static_cast<int64_t>(txn))};
            Signal(std::move(occ));
          }
        });
  }
}

void EventManager::HandleTxnEnd(TxnId txn, bool committed) {
  {
    TxnShard& shard = ShardOf(txn);
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.active_txns.erase(txn);
  }
  if (lanes_ != nullptr && !LoadSnapshot()->single_txn.empty()) {
    // The EOT task queues behind every task of the transaction on its
    // lane, so no occurrence of it is composed after its instances are
    // gone, and the composites those tasks complete are merged with the
    // rest.
    lanes_->Submit(ComposeTask{nullptr, nullptr, nullptr, txn, committed},
                   txn);
  } else {
    // Inline, or no single-txn compositor: no task of the transaction can
    // still be composing, so it ends here.
    EndTxn(txn, committed);
  }
}

void EventManager::OnEvent(const SentryEvent& event) {
  // Milestones and life-span tracking apply to top-level transactions only
  // (a begin event with a parent parameter is a subtransaction).
  if (event.kind == SentryKind::kTxnBegin && event.args.empty()) {
    OnTxnBegin(event.txn);
  }
  // Any registered DB event type matching this announcement fires. For txn
  // events the class/member keys are empty.
  EventTypeId type =
      registry_.FindDbEvent(event.kind, event.class_name, event.member);
  if (type == kInvalidEventType && !event.class_name.empty()) {
    // Allow class-wildcard flow events (e.g. "any persist").
    type = registry_.FindDbEvent(event.kind, "", "");
  }
  if (type != kInvalidEventType) {
    auto occ = std::make_shared<EventOccurrence>();
    occ->type = type;
    occ->timestamp = event.timestamp;
    occ->detect_ns = event.detect_ns;
    // Occurrences carry the ROOT transaction: rule subtransactions raise
    // events on behalf of the top-level transaction they belong to, and
    // all coupling/life-span semantics are defined against that root.
    occ->txn = event.txn == kNoTxn ? kNoTxn : db_->txns()->RootOf(event.txn);
    occ->source = event.oid;
    occ->params = event.args;
    if (event.kind == SentryKind::kMethodAfter && !event.result.is_null()) {
      occ->params.push_back(event.result);
    }
    Signal(std::move(occ));
  }
  // A transaction's own commit or abort occurrence, signalled above, is
  // swept and merged with the rest of its events rather than left behind.
  if (event.kind == SentryKind::kTxnCommit ||
      event.kind == SentryKind::kTxnAbort) {
    HandleTxnEnd(event.txn, event.kind == SentryKind::kTxnCommit);
  }
}

void EventManager::Quiesce() {
  // Recovered completions first — they may enqueue composition work.
  CompleteRecovery();
  // Then the lanes, whose EOT tasks merge the global history.
  if (lanes_) lanes_->WaitIdle();
}

// ---------------------------------------------------------------------------
// Durable event history
// ---------------------------------------------------------------------------

Status EventManager::RestoreAndReplay(Compositor* compositor,
                                      const EventDescriptor* desc) {
  REACH_FAULT_POINT(faults::kEventHistoryReplay);
  auto state_it = recovered_.checkpoint_states.find(desc->name);
  if (state_it != recovered_.checkpoint_states.end()) {
    REACH_RETURN_IF_ERROR(
        compositor->RestoreState(state_it->second, &registry_));
  }
  if (!recovered_.tail.empty()) {
    std::unordered_set<EventTypeId> leaves;
    for (EventTypeId t : desc->expr->LeafTypes()) leaves.insert(t);
    for (const std::string& payload : recovered_.tail) {
      size_t pos = 0;
      auto occ = eventlog::DecodeOccurrence(payload, &pos, &registry_);
      if (!occ.ok()) continue;  // counted malformed at partition time
      if (leaves.find((*occ)->type) == leaves.end()) continue;
      // At or below the restored feed floor = already reflected in the
      // checkpointed node state.
      if ((*occ)->sequence <= compositor->last_fed_seq()) continue;
      std::vector<EventOccurrencePtr> completions;
      EventOccurrencePtr fed = *occ;
      compositor->Feed(fed, &completions);
      replayed_.fetch_add(1, std::memory_order_relaxed);
      EventMetrics::Get().replayed->Inc();
      for (auto& c : completions) {
        if (recovered_.consumed.count(
                eventlog::CompletionKey(desc->name, *c)) != 0) {
          continue;  // fired before the crash; tombstoned
        }
        std::lock_guard<std::mutex> plock(pending_mu_);
        pending_recovered_.emplace_back(
            desc->name, std::const_pointer_cast<EventOccurrence>(c));
        recovery_pending_.store(true, std::memory_order_release);
      }
    }
  }
  // Validity cutoffs: first the largest explicit cutoff logged before the
  // crash, then the downtime itself — partials whose interval lapsed while
  // the process was down must not survive the restart (§3.3).
  auto cutoff_it = recovered_.expiry_cutoffs.find(desc->name);
  if (cutoff_it != recovered_.expiry_cutoffs.end()) {
    compositor->ExpireOlderThan(cutoff_it->second);
  }
  if (desc->validity_us > 0) {
    compositor->ExpireOlderThan(db_->clock()->Now() - desc->validity_us);
  }
  return Status::OK();
}

void EventManager::CompleteRecovery() {
  if (!recovery_pending_.exchange(false, std::memory_order_acq_rel)) return;
  std::vector<std::pair<std::string, std::shared_ptr<EventOccurrence>>>
      pending;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending.swap(pending_recovered_);
  }
  for (auto& [name, completion] : pending) {
    if (history_log_) {
      Status st = history_log_->LogConsumption(name, *completion);
      if (!st.ok()) RecordHistoryFailure(st);
    }
    Signal(std::move(completion));
  }
}

Status EventManager::CheckpointEventState() {
  if (!history_log_) return Status::OK();
  std::unique_lock<std::shared_mutex> history_lock(history_mu_);
  if (logged_unfed_.load(std::memory_order_acquire) != 0) {
    return Status::Busy(
        "logged occurrences still composing; event checkpoint deferred");
  }
  if (recovery_pending_.load(std::memory_order_acquire)) {
    return Status::Busy(
        "recovered completions not yet signalled; event checkpoint deferred");
  }
  std::vector<std::pair<std::string, std::string>> states;
  {
    std::lock_guard<std::mutex> lock(publish_mu_);
    for (const auto& [id, compositor] : compositors_) {
      const EventDescriptor* desc = compositor->descriptor();
      if (desc->scope != CompositeScope::kCrossTxn) continue;
      states.emplace_back(desc->name,
                          compositor->SnapshotState(&registry_));
    }
  }
  if (states.empty() && history_log_->logged() == 0) {
    // No cross-txn compositors and nothing logged this incarnation: an
    // empty checkpoint would restore nothing but still survive log
    // truncation, making every reopen scan a record for no reason (and a
    // pre-existing tail, if any, is better preserved than superseded).
    return Status::OK();
  }
  Status st = history_log_->LogCheckpoint(eventlog::EncodeCheckpoint(
      next_sequence_.load(std::memory_order_relaxed) - 1, states));
  if (st.ok()) {
    since_checkpoint_.store(0, std::memory_order_relaxed);
  } else {
    RecordHistoryFailure(st);
  }
  return st;
}

Status EventManager::FlushEventLog() {
  return history_log_ ? history_log_->Flush() : Status::OK();
}

void EventManager::FinishFeed(const EventOccurrencePtr& occ) {
  if (!occ->history_logged) return;
  logged_unfed_.fetch_sub(1, std::memory_order_acq_rel);
  if (options_.history_checkpoint_interval > 0 &&
      since_checkpoint_.load(std::memory_order_relaxed) >=
          options_.history_checkpoint_interval) {
    // Best-effort: Busy (another feed raced in) or an IO error just defers
    // to the next quiescent moment; nothing is lost, the tail grows.
    (void)CheckpointEventState();
  }
}

void EventManager::RecordHistoryFailure(const Status& status) {
  std::lock_guard<std::mutex> lock(status_mu_);
  history_status_ = status;
}

Status EventManager::history_status() const {
  std::lock_guard<std::mutex> lock(status_mu_);
  return history_status_;
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

const LocalHistory* EventManager::HistoryOf(EventTypeId type) const {
  const DispatchSnapshot* snap = LoadSnapshot();
  auto it = snap->tables.find(type);
  return it == snap->tables.end() ? nullptr : it->second->history.get();
}

const Compositor* EventManager::CompositorOf(EventTypeId composite) const {
  std::lock_guard<std::mutex> lock(publish_mu_);
  auto it = compositors_.find(composite);
  return it == compositors_.end() ? nullptr : it->second.get();
}

size_t EventManager::LivePartials() const {
  std::lock_guard<std::mutex> lock(publish_mu_);
  size_t n = 0;
  for (const auto& [_, c] : compositors_) n += c->LivePartialCount();
  return n;
}

}  // namespace reach
