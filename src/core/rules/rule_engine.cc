#include "core/rules/rule_engine.h"

#include <algorithm>
#include <string>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "testing/fault_points.h"
#include "testing/fault_registry.h"

namespace reach {

namespace {

/// Process-wide rule counters plus per-coupling-mode latency histograms.
/// The mode-tagged names (rules.exec_ns.<mode>, rules.fire_lag_ns.<mode>)
/// are resolved once here — obs cannot depend on core, so the CouplingMode
/// vocabulary stays on this side of the boundary.
struct RuleMetrics {
  obs::Counter* immediate_runs;
  obs::Counter* deferred_runs;
  obs::Counter* detached_runs;
  obs::Counter* failures;
  obs::Counter* dependency_skips;
  obs::Counter* deferred_rounds;
  // Rule condition+action execution time, by coupling mode.
  obs::Histogram* exec_ns[kNumCouplingModes];
  // Detection-to-execution-start lag (pipeline span), by coupling mode.
  obs::Histogram* fire_lag_ns[kNumCouplingModes];

  static const RuleMetrics& Get() {
    static const RuleMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
      RuleMetrics r{};
      r.immediate_runs = reg.counter(obs::kRulesImmediateRuns);
      r.deferred_runs = reg.counter(obs::kRulesDeferredRuns);
      r.detached_runs = reg.counter(obs::kRulesDetachedRuns);
      r.failures = reg.counter(obs::kRulesFailures);
      r.dependency_skips = reg.counter(obs::kRulesDependencySkips);
      r.deferred_rounds = reg.counter(obs::kRulesDeferredRounds);
      for (int i = 0; i < kNumCouplingModes; ++i) {
        const char* mode = CouplingModeName(static_cast<CouplingMode>(i));
        r.exec_ns[i] =
            reg.histogram(std::string(obs::kRulesExecNsPrefix) + mode);
        r.fire_lag_ns[i] =
            reg.histogram(std::string(obs::kRulesFireLagNsPrefix) + mode);
      }
      return r;
    }();
    return m;
  }
};

/// Single timing measurement feeding both the RuleTrace entry and the
/// per-mode metrics; the clock is read only when at least one consumer is
/// on (start == 0 means "unmeasured").
uint64_t RuleTimingStart(const RuleTrace& trace) {
  return (trace.enabled() || obs::MetricsEnabled()) ? obs::NowNanos() : 0;
}

/// Cardinality bound on the per-rule breakdown: at most
/// kPerRuleHistogramCap rules hold a "rules.exec_ns.rule.<name>" histogram
/// at a time. Admission is evict-and-replace: when every slot is taken, a
/// newly executing rule evicts the least-recently-executed holder —
/// provided that holder has been idle for at least kEvictIdleTicks recorded
/// executions, so two hot rules never ping-pong a slot. The histogram
/// objects themselves live forever in the registry (registry entries are
/// never deleted), so a name-churning workload still grows the registry by
/// its count of distinct admitted names; rules.histogram.evicted makes that
/// churn visible.
constexpr size_t kPerRuleHistogramCap = 32;
constexpr uint64_t kEvictIdleTicks = 64;

/// Fresh sibling subtransactions a rule gets after losing a deadlock to a
/// sibling (see ExecuteInSubtxn) before the deadlock counts as the rule's
/// failure, and how long each retry waits for the winner to get its lock.
constexpr int kMaxDeadlockRetries = 8;
constexpr int64_t kDeadlockRetryWaitUs = 100'000;

/// Third deferred-phase policy (§6.4): rules triggered by simple events fire
/// ahead of rules triggered by composite events.
constexpr bool kSimpleEventsFirst = true;

/// Threads of the pool that runs detached rules and helps run sibling
/// subtransactions.
constexpr size_t kDetachedThreads = 4;

/// Deferred rules may raise events that trigger more deferred rules; a
/// cascade still pending after this many rounds fails the commit
/// (termination is undecidable in general [AWH92]).
constexpr size_t kMaxDeferredRounds = 32;

struct PerRuleSlots {
  struct Slot {
    /// Owning rule's process-unique uid; 0 = free. Cleared before the slot
    /// is rebound so a stale owner's cached-pointer check fails.
    std::atomic<uint64_t> owner{0};
    /// Tick of the owner's most recent recorded execution (LRU key).
    std::atomic<uint64_t> last_used{0};
    std::atomic<obs::Histogram*> hist{nullptr};
  };

  std::mutex mu;  // guards rebinding; the record fast path is lock-free
  Slot slots[kPerRuleHistogramCap];
  /// Advances once per recorded rule execution (the "time" for LRU/idle).
  std::atomic<uint64_t> clock{0};
  obs::Counter* evicted = obs::MetricsRegistry::Instance().counter(
      obs::kRulesHistogramEvicted);

  static PerRuleSlots& Get() {
    static PerRuleSlots t;
    return t;
  }
};

obs::Histogram* PerRuleHistogram(Rule* rule) {
  PerRuleSlots& t = PerRuleSlots::Get();
  const uint64_t now = t.clock.fetch_add(1, std::memory_order_relaxed) + 1;
  auto* slot =
      static_cast<PerRuleSlots::Slot*>(rule->hist_slot.load(std::memory_order_acquire));
  if (slot != nullptr && slot->owner.load(std::memory_order_acquire) == rule->uid) {
    slot->last_used.store(now, std::memory_order_relaxed);
    // A racing eviction between the owner check and this load can land one
    // sample in the successor's histogram — acceptable for observability.
    return slot->hist.load(std::memory_order_acquire);
  }
  // First execution, or this rule's slot was evicted: claim a free slot or
  // replace the least-recently-executed holder if it has gone idle.
  std::lock_guard<std::mutex> lock(t.mu);
  slot = static_cast<PerRuleSlots::Slot*>(
      rule->hist_slot.load(std::memory_order_acquire));
  if (slot != nullptr && slot->owner.load(std::memory_order_acquire) == rule->uid) {
    slot->last_used.store(now, std::memory_order_relaxed);
    return slot->hist.load(std::memory_order_acquire);
  }
  PerRuleSlots::Slot* victim = nullptr;
  for (auto& s : t.slots) {
    if (s.owner.load(std::memory_order_relaxed) == 0) {
      victim = &s;
      break;
    }
    if (victim == nullptr ||
        s.last_used.load(std::memory_order_relaxed) <
            victim->last_used.load(std::memory_order_relaxed)) {
      victim = &s;
    }
  }
  if (victim->owner.load(std::memory_order_relaxed) != 0) {
    const uint64_t idle =
        now - victim->last_used.load(std::memory_order_relaxed);
    if (idle <= kEvictIdleTicks) return nullptr;  // every holder is hot
    t.evicted->Inc();
  }
  victim->owner.store(0, std::memory_order_release);
  victim->hist.store(obs::MetricsRegistry::Instance().histogram(
                         std::string(obs::kRulesExecNsRulePrefix) +
                         rule->spec.name),
                     std::memory_order_release);
  victim->last_used.store(now, std::memory_order_relaxed);
  victim->owner.store(rule->uid, std::memory_order_release);
  rule->hist_slot.store(victim, std::memory_order_release);
  return victim->hist.load(std::memory_order_acquire);
}

/// Frees a dying rule's histogram slot (DropRule / engine teardown) so the
/// next admission takes it without waiting out the idle-eviction window.
/// Safe even if the slot was already evicted and rebound: the owner-uid
/// check makes the release a no-op then.
void ReleasePerRuleSlot(Rule* rule) {
  auto* slot = static_cast<PerRuleSlots::Slot*>(
      rule->hist_slot.load(std::memory_order_acquire));
  if (slot == nullptr) return;
  PerRuleSlots& t = PerRuleSlots::Get();
  std::lock_guard<std::mutex> lock(t.mu);
  if (slot->owner.load(std::memory_order_relaxed) == rule->uid) {
    slot->owner.store(0, std::memory_order_release);
  }
}

void RecordRuleTiming(Rule* rule, CouplingMode mode, uint64_t start_ns,
                      uint64_t detect_ns, uint64_t* elapsed_ns) {
  *elapsed_ns = start_ns != 0 ? obs::NowNanos() - start_ns : 0;
  if (!obs::MetricsEnabled() || start_ns == 0) return;
  int i = static_cast<int>(mode);
  const RuleMetrics& m = RuleMetrics::Get();
  m.exec_ns[i]->RecordAlways(*elapsed_ns);
  if (detect_ns != 0 && start_ns > detect_ns) {
    m.fire_lag_ns[i]->RecordAlways(start_ns - detect_ns);
  }
  if (obs::Histogram* h = PerRuleHistogram(rule)) {
    h->RecordAlways(*elapsed_ns);
  }
}

}  // namespace

RuleEngine::RuleEngine(Database* db, EventManager* events,
                       RuleEngineOptions options)
    : db_(db), events_(events), options_(options) {
  detached_pool_ = std::make_unique<ThreadPool>(kDetachedThreads);
  db_->txns()->AddListener(this);
}

RuleEngine::~RuleEngine() {
  db_->txns()->RemoveListener(this);
  detached_pool_->Shutdown();
  for (auto& [id, rule] : rules_) ReleasePerRuleSlot(rule.get());
}

Result<RuleId> RuleEngine::DefineRule(RuleSpec spec) {
  if (spec.name.empty()) return Status::InvalidArgument("rule needs a name");
  if (!spec.action) return Status::InvalidArgument("rule needs an action");
  const EventDescriptor* desc = events_->registry()->Find(spec.event);
  if (desc == nullptr) {
    return Status::NotFound("event type " + std::to_string(spec.event));
  }
  // Table 1 admission check.
  REACH_RETURN_IF_ERROR(CheckCoupling(desc->category, spec.coupling));
  // A split C-A coupling only makes sense when the condition runs inside
  // the triggering transaction (immediate/deferred); detached-family rules
  // already execute in their own transaction.
  if (spec.action_coupling != RuleSpec::ActionCoupling::kSameAsCondition &&
      spec.coupling != CouplingMode::kImmediate &&
      spec.coupling != CouplingMode::kDeferred) {
    return Status::InvalidArgument(
        "separate action coupling requires an immediate or deferred "
        "condition coupling");
  }
  if (spec.action_coupling == RuleSpec::ActionCoupling::kDeferred &&
      spec.coupling == CouplingMode::kDeferred) {
    // Redundant but harmless; normalize.
    spec.action_coupling = RuleSpec::ActionCoupling::kSameAsCondition;
  }

  std::unique_lock lock(mu_);
  if (by_name_.contains(spec.name)) {
    return Status::AlreadyExists("rule " + spec.name);
  }
  auto rule = std::make_unique<Rule>();
  rule->id = next_id_++;
  static std::atomic<uint64_t> next_rule_uid{0};
  rule->uid = next_rule_uid.fetch_add(1, std::memory_order_relaxed) + 1;
  rule->registration_seq = next_registration_seq_++;
  rule->spec = std::move(spec);
  RuleId id = rule->id;
  EventTypeId event = rule->spec.event;
  if (rule->spec.coupling == CouplingMode::kDeferred ||
      rule->spec.action_coupling == RuleSpec::ActionCoupling::kDeferred) {
    deferred_rule_count_.fetch_add(1);
  }
  by_name_[rule->spec.name] = id;
  by_event_[event].push_back(id);
  rules_[id] = std::move(rule);

  if (!listening_.contains(event)) {
    listening_.insert(event);
    lock.unlock();
    events_->AddEventListener(
        event, [this, event](const EventOccurrencePtr& occ) {
          OnOccurrence(event, occ);
        });
  }
  return id;
}

Status RuleEngine::SetRuleEnabled(const std::string& name, bool enabled) {
  std::unique_lock lock(mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return Status::NotFound("rule " + name);
  rules_[it->second]->enabled = enabled;
  return Status::OK();
}

Status RuleEngine::DropRule(const std::string& name) {
  std::unique_lock lock(mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return Status::NotFound("rule " + name);
  RuleId id = it->second;
  EventTypeId event = rules_[id]->spec.event;
  if (rules_[id]->spec.coupling == CouplingMode::kDeferred ||
      rules_[id]->spec.action_coupling ==
          RuleSpec::ActionCoupling::kDeferred) {
    deferred_rule_count_.fetch_sub(1);
  }
  auto& vec = by_event_[event];
  vec.erase(std::remove(vec.begin(), vec.end(), id), vec.end());
  ReleasePerRuleSlot(rules_[id].get());
  rules_.erase(id);
  by_name_.erase(it);
  return Status::OK();
}

const Rule* RuleEngine::FindRule(const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return nullptr;
  return rules_.at(it->second).get();
}

std::vector<std::string> RuleEngine::RuleNames() const {
  std::shared_lock lock(mu_);
  std::vector<std::string> out;
  out.reserve(by_name_.size());
  for (const auto& [name, _] : by_name_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

Result<RuleStats> RuleEngine::StatsOf(const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return Status::NotFound("rule " + name);
  return rules_.at(it->second)->stats;
}

std::vector<Rule*> RuleEngine::RulesForEvent(EventTypeId type) {
  std::shared_lock lock(mu_);
  std::vector<Rule*> out;
  auto it = by_event_.find(type);
  if (it == by_event_.end()) return out;
  for (RuleId id : it->second) {
    Rule* rule = rules_.at(id).get();
    if (rule->enabled) out.push_back(rule);
  }
  bool oldest_first =
      options_.tie_break == RuleEngineOptions::TieBreak::kOldestFirst;
  std::sort(out.begin(), out.end(), [oldest_first](Rule* a, Rule* b) {
    if (a->spec.priority != b->spec.priority) {
      return a->spec.priority > b->spec.priority;  // urgent first
    }
    return oldest_first ? a->registration_seq < b->registration_seq
                        : a->registration_seq > b->registration_seq;
  });
  return out;
}

void RuleEngine::MarkEngineTxn(TxnId txn) {
  std::lock_guard<std::mutex> lock(engine_txn_mu_);
  engine_txns_.insert(txn);
}

void RuleEngine::UnmarkEngineTxn(TxnId txn) {
  std::lock_guard<std::mutex> lock(engine_txn_mu_);
  engine_txns_.erase(txn);
}

bool RuleEngine::IsEngineTxn(TxnId txn) const {
  std::lock_guard<std::mutex> lock(engine_txn_mu_);
  return engine_txns_.contains(txn);
}

void RuleEngine::OnOccurrence(EventTypeId type,
                              const EventOccurrencePtr& occ) {
  std::vector<Rule*> rules = RulesForEvent(type);
  if (rules.empty()) return;
  // Flow-control events raised by the engine's own transactions must not
  // fire rules (a rule on `commit` would otherwise retrigger itself).
  const EventDescriptor* desc = events_->registry()->Find(type);
  if (desc != nullptr && desc->is_db_event &&
      (desc->sentry_kind == SentryKind::kTxnBegin ||
       desc->sentry_kind == SentryKind::kTxnCommit ||
       desc->sentry_kind == SentryKind::kTxnAbort) &&
      IsEngineTxn(occ->txn)) {
    return;
  }

  std::vector<Firing> immediate;
  for (Rule* rule : rules) {
    {
      std::unique_lock lock(mu_);
      rule->stats.triggered++;
    }
    switch (rule->spec.coupling) {
      case CouplingMode::kImmediate:
        if (occ->txn == kNoTxn) {
          // Explicitly raised outside any transaction: fall back to an
          // independent transaction (documented deviation; Table 1 has no
          // row for transactionless method events).
          DispatchDetached(rule, occ, CouplingMode::kDetached, false);
        } else {
          immediate.push_back({rule->id, occ, false});
        }
        break;
      case CouplingMode::kDeferred:
        if (occ->txn == kNoTxn) {
          DispatchDetached(rule, occ, CouplingMode::kDetached, false);
        } else {
          EnqueueDeferred({rule->id, occ, false}, occ->txn);
        }
        break;
      default:
        DispatchDetached(rule, occ, rule->spec.coupling, false);
        break;
    }
  }
  if (!immediate.empty()) {
    engine_stats_.immediate_runs.fetch_add(immediate.size(),
                                           std::memory_order_relaxed);
    RuleMetrics::Get().immediate_runs->Inc(immediate.size());
    // The go-ahead for the application is this call returning.
    Status st = ExecuteSet(immediate, occ->txn);
    (void)st;  // failures are recorded per rule / may abort the trigger
  }
}

void RuleEngine::EnqueueDeferred(Firing firing, TxnId root) {
  std::lock_guard<std::mutex> lock(deferred_mu_);
  deferred_[root].push_back(std::move(firing));
}

Status RuleEngine::ExecuteInSubtxn(Rule* rule, const EventOccurrencePtr& occ,
                                   TxnId parent, bool action_only) {
  uint64_t start_ns = RuleTimingStart(trace_);
  TxnId sub_txn = kNoTxn;
  Status result;
  bool condition_true = true;
  bool condition_held = false;
  bool ran_action = false;
  // Sibling subtransactions upgrading locks on a shared object can deadlock;
  // the victim lost a race, not its rule. Abort only that subtransaction,
  // let the sibling that won take its lock, and re-run the rule in a fresh
  // sibling. An action's own Aborted (e.g. a violated constraint) is not a
  // lock-manager victim and is never retried; neither is a deadlock with
  // another transaction tree, which waits on locks the parent keeps.
  LockManager* locks = db_->txns()->locks();
  for (int attempt = 0;; ++attempt) {
    auto sub = db_->txns()->Begin(parent);
    if (!sub.ok()) return sub.status();
    sub_txn = sub.value();
    MarkEngineTxn(sub_txn);
    Session session(db_);
    session.AdoptTxn(sub_txn);

    // Keyed by (rule, occurrence) so the same firings fail under the serial
    // ring-sequence and the parallel-subtransaction strategies — the
    // differential torture suite depends on this.
    result = REACH_FAULT_HIT_KEYED(
        faults::kRuleSubtxnExec,
        (static_cast<uint64_t>(rule->id) << 32) ^ occ->sequence);
    condition_true = true;
    if (result.ok() && !action_only && rule->spec.condition) {
      auto cond = rule->spec.condition(session, *occ);
      if (!cond.ok()) {
        result = cond.status();
        condition_true = false;
      } else {
        condition_true = cond.value();
      }
    }

    condition_held = result.ok() && condition_true;
    ran_action = false;
    if (condition_held) {
      switch (rule->spec.action_coupling) {
        case RuleSpec::ActionCoupling::kSameAsCondition:
          result = rule->spec.action(session, *occ);
          ran_action = true;
          break;
        case RuleSpec::ActionCoupling::kDeferred:
          EnqueueDeferred({rule->id, occ, true},
                          db_->txns()->RootOf(parent));
          break;
        case RuleSpec::ActionCoupling::kDetached:
          DispatchDetached(rule, occ, CouplingMode::kDetached, true);
          break;
      }
    }

    TxnId winner = kNoTxn;
    if (result.ok()) {
      result = session.Commit();
    } else {
      if (attempt < kMaxDeadlockRetries) {
        winner = locks->DeadlockPartner(sub_txn);
        if (winner != kNoTxn &&
            db_->txns()->RootOf(winner) != db_->txns()->RootOf(parent)) {
          winner = kNoTxn;
        }
      }
      Status abort_st = session.Abort();
      (void)abort_st;
    }
    UnmarkEngineTxn(sub_txn);
    if (winner == kNoTxn) break;
    locks->AwaitNotWaiting(winner, kDeadlockRetryWaitUs);
  }

  uint64_t elapsed_ns = 0;
  RecordRuleTiming(rule, rule->spec.coupling, start_ns, occ->detect_ns,
                   &elapsed_ns);

  if (trace_.enabled()) {
    RuleTraceEntry entry;
    entry.rule_name = rule->spec.name;
    entry.rule = rule->id;
    entry.event = occ->type;
    entry.occurrence_seq = occ->sequence;
    entry.mode = rule->spec.coupling;
    entry.action_only = action_only;
    entry.condition_true = condition_true;
    entry.action_ran = ran_action;
    entry.succeeded = result.ok();
    if (!result.ok()) entry.error = result.ToString();
    entry.trigger_txn = occ->txn;
    entry.rule_txn = sub_txn;
    entry.duration_us = static_cast<int64_t>(elapsed_ns / 1000);
    trace_.Append(std::move(entry));
  }

  {
    std::unique_lock lock(mu_);
    if (condition_held) rule->stats.conditions_true++;
    if (ran_action && result.ok()) rule->stats.actions_run++;
    if (!result.ok()) rule->stats.failures++;
  }
  if (!result.ok()) {
    engine_stats_.failures.fetch_add(1, std::memory_order_relaxed);
    RuleMetrics::Get().failures->Inc();
  }
  if (!result.ok() && rule->spec.abort_triggering_on_failure) {
    TxnId root = db_->txns()->RootOf(parent);
    if (db_->txns()->IsActive(root)) {
      Status abort_st = db_->txns()->Abort(root);
      (void)abort_st;
    }
  }
  return result;
}

Status RuleEngine::ExecuteSet(const std::vector<Firing>& firings,
                              TxnId parent) {
  auto execute = [&](const Firing& f) {
    Rule* rule;
    {
      std::shared_lock lock(mu_);
      auto it = rules_.find(f.rule);
      if (it == rules_.end()) return Status::OK();  // dropped meanwhile
      rule = it->second.get();
    }
    return ExecuteInSubtxn(rule, f.occ, parent, f.action_only);
  };
  if (options_.multi_rule_execution ==
          RuleEngineOptions::Execution::kSerialRingSequence ||
      firings.size() == 1) {
    // Serial ring-sequence (§6.4 first-prototype strategy): the set is
    // already ordered by priority + tie-break.
    Status first_error = Status::OK();
    for (const Firing& f : firings) {
      Status st = execute(f);
      if (first_error.ok() && !st.ok()) first_error = st;
      if (!db_->txns()->IsActive(parent)) {
        // A rule aborted the triggering transaction; stop the sequence.
        return Status::Aborted("triggering transaction aborted by rule");
      }
    }
    return first_error;
  }
  // Parallel sibling subtransactions, fanned out on the detached pool with
  // the caller running whatever no helper has started: a nested set, or a
  // pool busy with detached transactions, never leaves it waiting on work
  // that is not running. Priorities still order the claims (§6.4).
  return detached_pool_->ForEach(
      firings.size(), [&](size_t i) { return execute(firings[i]); });
}

Status RuleEngine::OnPreCommit(TxnId txn) {
  // An injected error here surfaces through the transaction manager's
  // pre-commit failure path, which aborts the triggering transaction.
  REACH_FAULT_POINT(faults::kRuleDeferredFlush);
  if (deferred_rule_count_.load(std::memory_order_relaxed) == 0) {
    std::lock_guard<std::mutex> lock(deferred_mu_);
    if (deferred_.empty()) return Status::OK();
  }
  Status first_error = Status::OK();
  for (size_t round = 0;; ++round) {
    // Let asynchronous composition finish so single-transaction composite
    // events of this transaction have been delivered.
    events_->Quiesce();

    std::vector<Firing> batch;
    {
      std::lock_guard<std::mutex> lock(deferred_mu_);
      auto it = deferred_.find(txn);
      if (it != deferred_.end()) {
        batch = std::move(it->second);
        deferred_.erase(it);
      }
    }
    if (batch.empty()) break;
    if (round == kMaxDeferredRounds) {
      // Dropping the pending firings would commit a half-run cascade; the
      // transaction manager aborts the transaction instead.
      return Status::OutOfRange("deferred rule cascade still pending after " +
                                std::to_string(kMaxDeferredRounds) + " rounds");
    }
    engine_stats_.deferred_rounds.fetch_add(1, std::memory_order_relaxed);
    engine_stats_.deferred_runs.fetch_add(batch.size(),
                                          std::memory_order_relaxed);
    RuleMetrics::Get().deferred_rounds->Inc();
    RuleMetrics::Get().deferred_runs->Inc(batch.size());

    // Ordering: priority, then simple-before-composite, then tie-break.
    bool oldest_first =
        options_.tie_break == RuleEngineOptions::TieBreak::kOldestFirst;
    std::shared_lock lock(mu_);
    std::stable_sort(
        batch.begin(), batch.end(),
        [&](const Firing& a, const Firing& b) {
          const Rule* ra = rules_.contains(a.rule)
                               ? rules_.at(a.rule).get() : nullptr;
          const Rule* rb = rules_.contains(b.rule)
                               ? rules_.at(b.rule).get() : nullptr;
          if (ra == nullptr || rb == nullptr) return false;
          if (ra->spec.priority != rb->spec.priority) {
            return ra->spec.priority > rb->spec.priority;
          }
          bool a_simple = a.occ->constituents.empty();
          bool b_simple = b.occ->constituents.empty();
          if (kSimpleEventsFirst && a_simple != b_simple) return a_simple;
          return oldest_first
                     ? ra->registration_seq < rb->registration_seq
                     : ra->registration_seq > rb->registration_seq;
        });
    lock.unlock();

    Status st = ExecuteSet(batch, txn);
    if (first_error.ok() && !st.ok()) {
      // Only failures of abort-demanding rules poison the commit; those
      // rules already aborted the transaction themselves.
      if (!db_->txns()->IsActive(txn)) first_error = st;
    }
    if (!db_->txns()->IsActive(txn)) break;
  }
  return first_error;
}

void RuleEngine::OnAbort(TxnId txn) {
  std::lock_guard<std::mutex> lock(deferred_mu_);
  deferred_.erase(txn);
}

void RuleEngine::DispatchDetached(Rule* rule, const EventOccurrencePtr& occ,
                                  CouplingMode mode, bool action_only) {
  RuleId id = rule->id;
  detached_pool_->Submit([this, id, occ, mode, action_only] {
    RunDetachedTask(id, occ, mode, action_only);
  });
}

void RuleEngine::RunDetachedTask(RuleId rule_id, EventOccurrencePtr occ,
                                 CouplingMode mode, bool action_only) {
  uint64_t start_ns = RuleTimingStart(trace_);
  Rule* rule;
  {
    std::shared_lock lock(mu_);
    auto it = rules_.find(rule_id);
    if (it == rules_.end()) return;
    rule = it->second.get();
  }
  std::vector<TxnId> involved = occ->InvolvedTxns();

  if (mode == CouplingMode::kSequentialCausallyDependent) {
    // May initiate only after every involved transaction committed.
    for (TxnId t : involved) {
      auto outcome = db_->txns()->WaitForOutcome(t);
      if (!outcome.ok() || !outcome.value()) {
        std::unique_lock lock(mu_);
        rule->stats.skipped_dependency++;
        engine_stats_.dependency_skips.fetch_add(1,
                                                 std::memory_order_relaxed);
        RuleMetrics::Get().dependency_skips->Inc();
        return;
      }
    }
  }

  auto txn = db_->txns()->Begin();
  if (!txn.ok()) return;
  MarkEngineTxn(txn.value());
  if (mode == CouplingMode::kParallelCausallyDependent) {
    for (TxnId t : involved) {
      (void)db_->txns()->AddCommitDependency(txn.value(), t);
    }
  } else if (mode == CouplingMode::kExclusiveCausallyDependent) {
    for (TxnId t : involved) {
      (void)db_->txns()->AddAbortDependency(txn.value(), t);
    }
  }

  Session session(db_);
  session.AdoptTxn(txn.value());
  Status result = REACH_FAULT_HIT_KEYED(
      faults::kRuleDetachedExec,
      (static_cast<uint64_t>(rule->id) << 32) ^ occ->sequence);
  bool condition_true = true;
  if (result.ok() && !action_only && rule->spec.condition) {
    auto cond = rule->spec.condition(session, *occ);
    if (!cond.ok()) {
      result = cond.status();
      condition_true = false;
    } else {
      condition_true = cond.value();
    }
  }
  bool ran_action = false;
  if (result.ok() && condition_true) {
    {
      std::unique_lock lock(mu_);
      rule->stats.conditions_true++;
    }
    result = rule->spec.action(session, *occ);
    ran_action = true;
  }
  if (result.ok() && (condition_true || !involved.empty())) {
    // Commit even on false conditions when causal dependencies must be
    // checked symmetrically; an empty transaction commit is cheap.
    result = session.Commit();
  } else if (result.ok()) {
    result = session.Abort();
  } else {
    Status abort_st = session.Abort();
    (void)abort_st;
  }
  UnmarkEngineTxn(txn.value());

  uint64_t elapsed_ns = 0;
  RecordRuleTiming(rule, mode, start_ns, occ->detect_ns, &elapsed_ns);

  if (trace_.enabled()) {
    RuleTraceEntry entry;
    entry.rule_name = rule->spec.name;
    entry.rule = rule->id;
    entry.event = occ->type;
    entry.occurrence_seq = occ->sequence;
    entry.mode = mode;
    entry.action_only = action_only;
    entry.condition_true = condition_true;
    entry.action_ran = ran_action;
    entry.succeeded = result.ok();
    if (!result.ok()) entry.error = result.ToString();
    entry.trigger_txn = occ->txn;
    entry.rule_txn = txn.value();
    entry.duration_us = static_cast<int64_t>(elapsed_ns / 1000);
    trace_.Append(std::move(entry));
  }

  {
    std::unique_lock lock(mu_);
    if (ran_action && result.ok()) rule->stats.actions_run++;
    if (!result.ok()) {
      if (result.IsAborted() &&
          (mode == CouplingMode::kParallelCausallyDependent ||
           mode == CouplingMode::kExclusiveCausallyDependent)) {
        rule->stats.skipped_dependency++;
      } else {
        rule->stats.failures++;
      }
    }
  }
  engine_stats_.detached_runs.fetch_add(1, std::memory_order_relaxed);
  RuleMetrics::Get().detached_runs->Inc();
  if (!result.ok()) {
    if (result.IsAborted() &&
        (mode == CouplingMode::kParallelCausallyDependent ||
         mode == CouplingMode::kExclusiveCausallyDependent)) {
      engine_stats_.dependency_skips.fetch_add(1, std::memory_order_relaxed);
      RuleMetrics::Get().dependency_skips->Inc();
    } else {
      engine_stats_.failures.fetch_add(1, std::memory_order_relaxed);
      RuleMetrics::Get().failures->Inc();
    }
  }
}

void RuleEngine::WaitDetachedIdle() { detached_pool_->WaitIdle(); }

RuleEngineStats RuleEngine::stats() const {
  RuleEngineStats s;
  s.immediate_runs = engine_stats_.immediate_runs.load(std::memory_order_relaxed);
  s.deferred_runs = engine_stats_.deferred_runs.load(std::memory_order_relaxed);
  s.detached_runs = engine_stats_.detached_runs.load(std::memory_order_relaxed);
  s.failures = engine_stats_.failures.load(std::memory_order_relaxed);
  s.dependency_skips =
      engine_stats_.dependency_skips.load(std::memory_order_relaxed);
  s.deferred_rounds =
      engine_stats_.deferred_rounds.load(std::memory_order_relaxed);
  return s;
}

}  // namespace reach
