// RuleEngine: rule registration (with Table 1 admission checking) and the
// firing machinery of §6.4 — immediate rules inline at the detection point,
// deferred rules at pre-commit, detached rules on a worker pool with the
// causal commit/abort dependencies enforced by the transaction manager.
//
// Multiple rules fired by one event execute either as an ordered serial
// ring-sequence (the first-prototype strategy) or as parallel sibling
// subtransactions (the nested-transaction strategy) — both are implemented
// so the E1 bench can compare them, exactly the measurement the paper says
// this design decision enables. Siblings fan out on the detached pool
// through ThreadPool::ForEach: the triggering thread runs every sibling no
// pool thread has started, so nested rule sets cannot exhaust the pool.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/thread_pool.h"
#include "core/events/event_manager.h"
#include "core/rules/rule.h"
#include "core/rules/rule_trace.h"
#include "oodb/database.h"

namespace reach {

struct RuleEngineOptions {
  enum class Execution {
    kSerialRingSequence,        // ordered, one at a time
    kParallelSubtransactions,   // sibling subtransactions, caller-runs
  };
  Execution multi_rule_execution = Execution::kSerialRingSequence;

  enum class TieBreak { kOldestFirst, kNewestFirst };
  /// Equal-priority ordering (§6.4): oldest rule first (default) or newest
  /// rule first.
  TieBreak tie_break = TieBreak::kOldestFirst;
};

struct RuleEngineStats {
  uint64_t immediate_runs = 0;
  uint64_t deferred_runs = 0;
  uint64_t detached_runs = 0;
  uint64_t failures = 0;
  uint64_t dependency_skips = 0;
  uint64_t deferred_rounds = 0;
};

class RuleEngine : public TxnListener {
 public:
  RuleEngine(Database* db, EventManager* events, RuleEngineOptions = {});
  ~RuleEngine() override;

  /// Register a rule. Rejects illegal event-category/coupling combinations
  /// per Table 1 and unknown event types.
  Result<RuleId> DefineRule(RuleSpec spec);

  Status SetRuleEnabled(const std::string& name, bool enabled);
  Status DropRule(const std::string& name);

  /// Snapshot of a rule (nullptr if unknown).
  const Rule* FindRule(const std::string& name) const;
  std::vector<std::string> RuleNames() const;
  Result<RuleStats> StatsOf(const std::string& name) const;

  /// TxnListener: the deferred execution phase (§6.4, transaction policy
  /// manager control at commit time).
  Status OnPreCommit(TxnId txn) override;
  void OnAbort(TxnId txn) override;

  /// Drain the detached executor (tests, benches, shutdown).
  void WaitDetachedIdle();

  RuleEngineStats stats() const;
  const RuleEngineOptions& options() const { return options_; }

  /// Firing trace (disabled by default): `trace()->set_enabled(true)`.
  RuleTrace* trace() { return &trace_; }

 private:
  struct Firing {
    RuleId rule = kInvalidRuleId;
    EventOccurrencePtr occ;
    bool action_only = false;  // condition already evaluated true
  };

  void OnOccurrence(EventTypeId type, const EventOccurrencePtr& occ);

  /// Sorted, enabled rules attached to `type` (priority desc, tie-break).
  std::vector<Rule*> RulesForEvent(EventTypeId type);

  /// Condition+action (or action only) in a subtransaction of `parent`.
  Status ExecuteInSubtxn(Rule* rule, const EventOccurrencePtr& occ,
                         TxnId parent, bool action_only);

  /// A set of rules against one parent transaction, serial or parallel.
  Status ExecuteSet(const std::vector<Firing>& firings, TxnId parent);

  void DispatchDetached(Rule* rule, const EventOccurrencePtr& occ,
                        CouplingMode mode, bool action_only);
  void RunDetachedTask(RuleId rule_id, EventOccurrencePtr occ,
                       CouplingMode mode, bool action_only);

  void EnqueueDeferred(Firing firing, TxnId root);

  Database* db_;
  EventManager* events_;
  RuleEngineOptions options_;

  mutable std::shared_mutex mu_;
  std::unordered_map<RuleId, std::unique_ptr<Rule>> rules_;
  std::unordered_map<std::string, RuleId> by_name_;
  std::unordered_map<EventTypeId, std::vector<RuleId>> by_event_;
  std::unordered_set<EventTypeId> listening_;
  RuleId next_id_ = 1;
  uint64_t next_registration_seq_ = 1;
  // Rules whose condition or action can land in a deferred queue; when
  // zero, pre-commit skips the composition barrier entirely.
  std::atomic<size_t> deferred_rule_count_{0};

  std::mutex deferred_mu_;
  std::unordered_map<TxnId, std::vector<Firing>> deferred_;

  // Transactions the engine itself runs (rule subtransactions, detached
  // rule transactions). Flow-control events they raise do not fire rules —
  // otherwise a rule on `commit` would retrigger itself forever.
  mutable std::mutex engine_txn_mu_;
  std::unordered_set<TxnId> engine_txns_;
  void MarkEngineTxn(TxnId txn);
  void UnmarkEngineTxn(TxnId txn);
  bool IsEngineTxn(TxnId txn) const;

  // Detached rule transactions, and parallel sibling subtransactions.
  std::unique_ptr<ThreadPool> detached_pool_;

  // Lock-free engine stats: hot-path increments are relaxed fetch_adds,
  // stats() assembles a RuleEngineStats snapshot. Process-wide totals are
  // mirrored into the obs::MetricsRegistry (rules.* counters).
  struct AtomicEngineStats {
    std::atomic<uint64_t> immediate_runs{0};
    std::atomic<uint64_t> deferred_runs{0};
    std::atomic<uint64_t> detached_runs{0};
    std::atomic<uint64_t> failures{0};
    std::atomic<uint64_t> dependency_skips{0};
    std::atomic<uint64_t> deferred_rounds{0};
  };
  AtomicEngineStats engine_stats_;
  RuleTrace trace_;
};

}  // namespace reach
