#include "txn/transaction_manager.h"

#include <algorithm>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "testing/fault_points.h"
#include "testing/fault_registry.h"

namespace reach {

namespace {

struct TxnMetrics {
  obs::Counter* begun;
  obs::Counter* committed;
  obs::Counter* aborted;
  obs::Histogram* commit_ns;

  static const TxnMetrics& Get() {
    static const TxnMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
      return TxnMetrics{reg.counter(obs::kTxnBegun),
                        reg.counter(obs::kTxnCommitted),
                        reg.counter(obs::kTxnAborted),
                        reg.histogram(obs::kTxnCommitNs)};
    }();
    return m;
  }
};

}  // namespace

TransactionManager::TransactionManager(StorageManager* storage)
    : storage_(storage) {
  storage_->objects()->set_mutation_listener(
      [this](TxnId txn, PageId page, SlotId slot, const WalCellImage& before) {
        RecordUndo(txn, page, slot, before);
      });
}

void TransactionManager::RecordUndo(TxnId txn, PageId page, SlotId slot,
                                    const WalCellImage& before) {
  if (txn == kNoTxn) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = txns_.find(txn);
  // Unknown id: a compensation logged during rollback (the txn entry was
  // already detached) or a non-transactional write — nothing to record.
  if (it == txns_.end() || it->second.state != TxnState::kActive) return;
  it->second.undo.push_back({page, slot, before});
}

Result<TxnId> TransactionManager::Begin(TxnId parent) {
  REACH_FAULT_POINT(faults::kTxnBegin);
  TxnId id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (parent != kNoTxn) {
      auto pit = txns_.find(parent);
      if (pit == txns_.end() || pit->second.state != TxnState::kActive) {
        return Status::FailedPrecondition("parent transaction not active");
      }
      pit->second.active_children++;
    }
    id = next_id_++;
    Txn& txn = txns_[id];
    txn.id = id;
    txn.parent = parent;
  }
  begun_.fetch_add(1);
  TxnMetrics::Get().begun->Inc();
  locks_.RegisterTxn(id, parent);
  REACH_RETURN_IF_ERROR(storage_->LogBegin(id));
  {
    std::lock_guard<std::mutex> lock(listener_mu_);
    for (TxnListener* l : listeners_) l->OnBegin(id, parent);
  }
  return id;
}

Status TransactionManager::Commit(TxnId txn_id) {
  // Before any state change: an injected error leaves the transaction
  // active so the caller can still abort it cleanly.
  REACH_FAULT_POINT(faults::kTxnCommitEntry);
  TxnId parent;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = txns_.find(txn_id);
    if (it == txns_.end() || it->second.state != TxnState::kActive) {
      return Status::FailedPrecondition("transaction not active");
    }
    if (it->second.active_children > 0) {
      return Status::FailedPrecondition(
          "subtransactions still active; commit or abort them first");
    }
    parent = it->second.parent;
  }

  if (parent == kNoTxn) {
    // Top-level commit latency: pre-commit hooks (deferred rules), causal
    // dependency waits, and the log force are all part of the number the
    // application experiences.
    uint64_t commit_start_ns = obs::NowNanosIfEnabled();
    // Pre-commit phase (deferred rule execution). Listeners may start
    // subtransactions of txn_id, so no lock is held here.
    std::vector<TxnListener*> listeners;
    {
      std::lock_guard<std::mutex> lock(listener_mu_);
      listeners = listeners_;
    }
    for (TxnListener* l : listeners) {
      Status st = l->OnPreCommit(txn_id);
      if (!st.ok()) {
        Status abort_st = DoAbort(txn_id);
        (void)abort_st;
        return Status::Aborted("pre-commit hook failed: " + st.ToString());
      }
    }

    // Causal dependency checks (parallel/sequential/exclusive detached).
    std::vector<TxnId> commit_deps, abort_deps;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = txns_.find(txn_id);
      if (it == txns_.end() || it->second.state != TxnState::kActive) {
        return Status::FailedPrecondition("transaction no longer active");
      }
      commit_deps = it->second.commit_deps;
      abort_deps = it->second.abort_deps;
    }
    for (TxnId dep : commit_deps) {
      auto outcome = WaitForOutcome(dep);
      if (!outcome.ok() || !outcome.value()) {
        REACH_RETURN_IF_ERROR(DoAbort(txn_id));
        return Status::Aborted("causal dependency " + std::to_string(dep) +
                               " did not commit");
      }
    }
    for (TxnId dep : abort_deps) {
      auto outcome = WaitForOutcome(dep);
      if (!outcome.ok() || outcome.value()) {
        REACH_RETURN_IF_ERROR(DoAbort(txn_id));
        return Status::Aborted("exclusive dependency " + std::to_string(dep) +
                               " committed");
      }
    }

    // Durability point: commit records for the whole tree, then force. If
    // the log cannot be written or forced, the commit never happened — the
    // tree must roll back. Returning with the transaction parked in
    // kCommitted would leak its locks and wedge every later transaction, so
    // revert to active and abort (the compensations redo over any buffered
    // commit records, keeping recovery correct either way).
    std::vector<TxnId> merged;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = txns_.find(txn_id);
      merged = it->second.merged;
      it->second.state = TxnState::kCommitted;
    }
    Status force = Status::OK();
    for (TxnId m : merged) {
      WalRecord rec;
      rec.type = WalRecordType::kCommit;
      rec.txn = m;
      auto lsn = storage_->wal()->Append(std::move(rec));
      if (!lsn.ok()) {
        force = lsn.status();
        break;
      }
    }
    if (force.ok()) {
      // Crash here: commit records are buffered but never forced — recovery
      // must roll the whole tree back.
      force = REACH_FAULT_HIT(faults::kTxnCommitForce);
      if (force.ok()) {
        // Durability point: append the root commit record, then block until
        // the durable-LSN watermark passes it. No TransactionManager lock is
        // held here, so concurrent committers pile into the same flusher
        // batch and share one fsync (group commit).
        auto commit_lsn = storage_->LogCommit(txn_id);
        force = commit_lsn.ok()
                    ? storage_->wal()->WaitDurable(*commit_lsn)
                    : commit_lsn.status();
      }
    }
    if (!force.ok()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = txns_.find(txn_id);
        if (it != txns_.end()) it->second.state = TxnState::kActive;
      }
      Status abort_st = DoAbort(txn_id);
      (void)abort_st;
      return force;
    }

    locks_.ReleaseAll(txn_id);
    locks_.UnregisterTxn(txn_id);
    {
      std::lock_guard<std::mutex> lock(mu_);
      FinishLocked(txn_id, /*committed=*/true);
    }
    outcome_cv_.notify_all();
    if (commit_start_ns != 0) {
      TxnMetrics::Get().commit_ns->RecordAlways(obs::NowNanos() -
                                                commit_start_ns);
    }
    TxnMetrics::Get().committed->Inc();
    std::lock_guard<std::mutex> lock(listener_mu_);
    for (TxnListener* l : listeners_) l->OnCommit(txn_id);
    return Status::OK();
  }

  // Nested commit: merge into the parent; nothing becomes durable yet.
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = txns_.find(txn_id);
    auto pit = txns_.find(parent);
    if (pit == txns_.end()) {
      return Status::Internal("parent transaction record missing");
    }
    Txn& child = it->second;
    Txn& par = pit->second;
    par.undo.insert(par.undo.end(),
                    std::make_move_iterator(child.undo.begin()),
                    std::make_move_iterator(child.undo.end()));
    par.merged.push_back(txn_id);
    par.merged.insert(par.merged.end(), child.merged.begin(),
                      child.merged.end());
    par.commit_deps.insert(par.commit_deps.end(), child.commit_deps.begin(),
                           child.commit_deps.end());
    par.abort_deps.insert(par.abort_deps.end(), child.abort_deps.begin(),
                          child.abort_deps.end());
    par.active_children--;
    FinishLocked(txn_id, /*committed=*/true);
  }
  outcome_cv_.notify_all();
  locks_.TransferLocks(txn_id, parent);
  locks_.UnregisterTxn(txn_id);
  std::lock_guard<std::mutex> lock(listener_mu_);
  for (TxnListener* l : listeners_) l->OnCommitChild(txn_id, parent);
  return Status::OK();
}

Status TransactionManager::DoAbort(TxnId txn_id) {
  REACH_FAULT_POINT(faults::kTxnAbortEntry);
  // Abort active children first (deepest-first through recursion). A child
  // whose abort reports an error has still been cleaned up (see below), so
  // keep going: the parent must not stay active holding locks.
  Status result = Status::OK();
  for (;;) {
    TxnId child = kNoTxn;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& [id, txn] : txns_) {
        if (txn.parent == txn_id && txn.state == TxnState::kActive) {
          child = id;
          break;
        }
      }
    }
    if (child == kNoTxn) break;
    Status st = DoAbort(child);
    if (!st.ok() && result.ok()) result = st;
  }

  std::vector<UndoEntry> undo;
  std::vector<TxnId> merged;
  TxnId parent;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = txns_.find(txn_id);
    if (it == txns_.end() || it->second.state != TxnState::kActive) {
      return Status::FailedPrecondition("transaction not active");
    }
    it->second.state = TxnState::kAborted;  // stop undo recording
    undo = std::move(it->second.undo);
    merged = it->second.merged;
    parent = it->second.parent;
  }

  // Compensate newest-first; each compensation is itself WAL-logged. If any
  // compensation cannot be applied, write no abort record: recovery then
  // treats the transaction as a loser and undoes it from the original
  // before-images, which is idempotent with whatever compensations did land.
  // Either way the in-memory cleanup below must run — an abort that leaves
  // its locks behind would block every later transaction forever.
  for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
    Status st = storage_->objects()->ApplyImageLogged(txn_id, it->page,
                                                      it->slot, it->before);
    if (!st.ok() && result.ok()) result = st;
  }
  if (result.ok()) {
    // Abort records for this txn and every descendant merged into it.
    for (TxnId m : merged) {
      WalRecord rec;
      rec.type = WalRecordType::kAbort;
      rec.txn = m;
      auto lsn = storage_->wal()->Append(std::move(rec));
      if (!lsn.ok()) {
        result = lsn.status();
        break;
      }
    }
    if (result.ok()) {
      Status st = storage_->LogAbort(txn_id);
      if (!st.ok()) result = st;
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (parent != kNoTxn) {
      auto pit = txns_.find(parent);
      if (pit != txns_.end()) pit->second.active_children--;
    }
    FinishLocked(txn_id, /*committed=*/false);
  }
  outcome_cv_.notify_all();
  // Listeners roll back their in-memory state (object cache, index
  // entries) while the locks are still held: the next locker of an object
  // this transaction wrote must not read the aborted value. The outcome is
  // recorded first, so the abort event names this transaction (RootOf no
  // longer walks up to a still-active parent).
  {
    std::lock_guard<std::mutex> lock(listener_mu_);
    for (TxnListener* l : listeners_) l->OnAbort(txn_id);
  }
  locks_.ReleaseAll(txn_id);
  locks_.UnregisterTxn(txn_id);
  TxnMetrics::Get().aborted->Inc();
  return result;
}

Status TransactionManager::Abort(TxnId txn_id) { return DoAbort(txn_id); }

Status TransactionManager::AddCommitDependency(TxnId dependent, TxnId on) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = txns_.find(dependent);
  if (it == txns_.end() || it->second.state != TxnState::kActive) {
    return Status::FailedPrecondition("dependent transaction not active");
  }
  it->second.commit_deps.push_back(on);
  return Status::OK();
}

Status TransactionManager::AddAbortDependency(TxnId dependent, TxnId on) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = txns_.find(dependent);
  if (it == txns_.end() || it->second.state != TxnState::kActive) {
    return Status::FailedPrecondition("dependent transaction not active");
  }
  it->second.abort_deps.push_back(on);
  return Status::OK();
}

Result<bool> TransactionManager::WaitForOutcome(TxnId txn_id) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto oit = outcomes_.find(txn_id);
    if (oit != outcomes_.end()) return oit->second;
    if (!txns_.contains(txn_id)) {
      return Status::NotFound("unknown transaction " +
                              std::to_string(txn_id));
    }
    outcome_cv_.wait(lock);
  }
}

void TransactionManager::FinishLocked(TxnId txn_id, bool committed) {
  txns_.erase(txn_id);
  outcomes_[txn_id] = committed;
}

bool TransactionManager::IsActive(TxnId txn_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = txns_.find(txn_id);
  return it != txns_.end() && it->second.state == TxnState::kActive;
}

TxnId TransactionManager::RootOf(TxnId txn_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  TxnId cur = txn_id;
  for (;;) {
    auto it = txns_.find(cur);
    if (it == txns_.end() || it->second.parent == kNoTxn) return cur;
    cur = it->second.parent;
  }
}

void TransactionManager::AddListener(TxnListener* listener) {
  std::lock_guard<std::mutex> lock(listener_mu_);
  listeners_.push_back(listener);
}

void TransactionManager::RemoveListener(TxnListener* listener) {
  std::lock_guard<std::mutex> lock(listener_mu_);
  listeners_.erase(
      std::remove(listeners_.begin(), listeners_.end(), listener),
      listeners_.end());
}

size_t TransactionManager::active_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [id, txn] : txns_) {
    if (txn.state == TxnState::kActive) ++n;
  }
  return n;
}

}  // namespace reach
