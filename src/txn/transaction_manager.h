// Transaction manager: flat and closed-nested transactions, rollback via
// per-transaction undo chains, and the commit/abort dependency tracking
// required by REACH's causally dependent detached coupling modes.
//
// WAL discipline for nested transactions: every operation is logged under
// the id of the (sub)transaction that performed it. Subtransaction commit
// writes nothing — at top-level commit a commit record is emitted for the
// root and every subtransaction that committed into it, then the log is
// forced once. Rollback logs compensating physical records, then an abort
// record for the rolled-back transaction and every subtransaction merged
// into it, so recovery never treats their operations as loser work.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/storage_manager.h"
#include "txn/lock_manager.h"

namespace reach {

enum class TxnState { kActive, kCommitted, kAborted };

/// Observer of transaction lifecycle; the REACH event layer subscribes to
/// turn BOT/EOT/commit/abort into flow-control events, and the rule engine
/// uses OnPreCommit to run deferred rules.
class TxnListener {
 public:
  virtual ~TxnListener() = default;
  virtual void OnBegin(TxnId txn, TxnId parent) {
    (void)txn;
    (void)parent;
  }
  /// Top-level transactions only, after the application finished its work
  /// but before the commit record. A non-OK status aborts the transaction.
  virtual Status OnPreCommit(TxnId txn) {
    (void)txn;
    return Status::OK();
  }
  virtual void OnCommit(TxnId txn) { (void)txn; }
  virtual void OnAbort(TxnId txn) { (void)txn; }
  /// Nested commit: `child` merged into `parent` — the child's effects now
  /// share the parent's fate, so any per-transaction bookkeeping (cache
  /// invalidation sets, index undo logs, change sets) must be merged into
  /// the parent, not discarded. Defaults to OnCommit(child) for listeners
  /// that do not track per-transaction state.
  virtual void OnCommitChild(TxnId child, TxnId parent) {
    (void)parent;
    OnCommit(child);
  }
};

class TransactionManager {
 public:
  /// Wires rollback support into `storage`'s object store (mutation
  /// listener). `storage` must outlive this object.
  explicit TransactionManager(StorageManager* storage);

  /// Start a transaction. `parent` != kNoTxn starts a closed-nested
  /// subtransaction of an active transaction.
  Result<TxnId> Begin(TxnId parent = kNoTxn);

  /// Commit. Top-level: runs pre-commit listeners, enforces causal
  /// dependencies, forces the log, releases locks. Nested: merges undo
  /// chain and locks into the parent.
  Status Commit(TxnId txn);

  /// Roll back `txn` (and any active subtransactions).
  Status Abort(TxnId txn);

  /// `dependent` may only commit after `on` commits; if `on` aborts,
  /// `dependent` aborts (parallel / sequential causally dependent rules).
  Status AddCommitDependency(TxnId dependent, TxnId on);

  /// `dependent` may only commit if `on` aborts (exclusive causally
  /// dependent rules); if `on` commits, `dependent` aborts.
  Status AddAbortDependency(TxnId dependent, TxnId on);

  /// Block until `txn` finishes; true = committed. Transactions unknown to
  /// this manager produce NotFound.
  Result<bool> WaitForOutcome(TxnId txn);

  bool IsActive(TxnId txn) const;
  TxnId RootOf(TxnId txn) const;

  void AddListener(TxnListener* listener);
  void RemoveListener(TxnListener* listener);

  LockManager* locks() { return &locks_; }

  /// Number of transactions currently active (roots + subtransactions).
  size_t active_count() const;

  uint64_t begun_count() const { return begun_.load(); }

 private:
  struct UndoEntry {
    PageId page;
    SlotId slot;
    WalCellImage before;
  };
  struct Txn {
    TxnId id = kNoTxn;
    TxnId parent = kNoTxn;
    TxnState state = TxnState::kActive;
    size_t active_children = 0;
    std::vector<UndoEntry> undo;            // newest last
    std::vector<TxnId> merged;              // committed descendants
    std::vector<TxnId> commit_deps;         // must commit
    std::vector<TxnId> abort_deps;          // must abort
  };

  /// Record a before-image (ObjectStore mutation listener).
  void RecordUndo(TxnId txn, PageId page, SlotId slot,
                  const WalCellImage& before);

  /// Shared rollback: applies undo, logs compensations + abort records,
  /// releases locks, notifies listeners. Expects mu_ NOT held.
  Status DoAbort(TxnId txn);

  /// Retire a finished transaction: erase it from txns_ and record its
  /// outcome in one mu_ critical section, so WaitForOutcome always finds
  /// it in one of the two maps. Callers hold mu_ and notify outcome_cv_
  /// after releasing it.
  void FinishLocked(TxnId txn, bool committed);

  StorageManager* storage_;
  LockManager locks_;

  mutable std::mutex mu_;
  std::condition_variable outcome_cv_;
  std::unordered_map<TxnId, Txn> txns_;
  std::unordered_map<TxnId, bool> outcomes_;  // finished txns
  TxnId next_id_ = 1;
  std::atomic<uint64_t> begun_{0};

  std::mutex listener_mu_;
  std::vector<TxnListener*> listeners_;
};

}  // namespace reach
