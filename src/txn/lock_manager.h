// Strict two-phase locking with shared/exclusive modes, Moss-style nested
// transaction rules (a child may acquire locks its ancestors hold), lock
// transfer on subtransaction commit, and wait-for-graph deadlock detection.
#pragma once

#include <condition_variable>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace reach {

enum class LockMode { kShared, kExclusive };

class LockManager {
 public:
  /// Make `txn` known, with its parent (kNoTxn for top-level). Required
  /// before the first Acquire.
  void RegisterTxn(TxnId txn, TxnId parent);

  /// Forget a finished transaction (after ReleaseAll/TransferLocks).
  void UnregisterTxn(TxnId txn);

  /// Acquire (or upgrade to) `mode` on `resource`. Blocks while conflicting
  /// locks are held by non-ancestors. Returns Aborted if waiting would
  /// create a deadlock — the caller must then abort `txn`.
  /// `timeout_us` < 0 means wait forever.
  Status Acquire(TxnId txn, const Oid& resource, LockMode mode,
                 int64_t timeout_us = -1);

  /// Acquire shared locks on a batch of resources with one mutex hold for
  /// every uncontended grant; contended resources fall back to the blocking
  /// per-resource Acquire (keeping deadlock detection). Used by batch object
  /// fetches (query morsels), where per-OID locking would serialize on mu_.
  Status AcquireSharedBatch(TxnId txn, const std::vector<Oid>& resources,
                            int64_t timeout_us = -1);

  /// Release every lock `txn` holds and wake waiters.
  void ReleaseAll(TxnId txn);

  /// Move all of `child`'s locks to `parent` (subtransaction commit).
  void TransferLocks(TxnId child, TxnId parent);

  /// True if `txn` holds `resource` in a mode covering `mode` (itself or
  /// via an ancestor, per Moss rules for reads).
  bool Holds(TxnId txn, const Oid& resource, LockMode mode);

  /// If an Acquire by `victim` was refused because waiting would have
  /// closed a deadlock cycle, the lock holder whose wait closed it; else
  /// kNoTxn. Tells the lock manager's Aborted apart from one a caller raised
  /// itself. Cleared by UnregisterTxn, so ask before aborting the victim.
  TxnId DeadlockPartner(TxnId victim) const;

  /// Block until `txn` no longer waits for a lock, or `timeout_us` passes.
  /// Wakes on lock releases and transfers.
  void AwaitNotWaiting(TxnId txn, int64_t timeout_us);

  /// Statistics.
  uint64_t deadlocks_detected() const {
    std::lock_guard<std::mutex> lock(mu_);
    return deadlocks_;
  }
  /// Resources with a grant or a waiter (lock-table entries).
  size_t locked_resources() const {
    std::lock_guard<std::mutex> lock(mu_);
    return table_.size();
  }

 private:
  struct Grant {
    TxnId txn;
    LockMode mode;
  };
  struct Resource {
    std::vector<Grant> grants;
    // Blocked Acquire calls; one transaction's parallel workers count once
    // each.
    size_t waiters = 0;
  };

  /// True if `maybe_ancestor` is `txn` or an ancestor of `txn`.
  bool IsSelfOrAncestor(TxnId maybe_ancestor, TxnId txn) const;

  /// True if `txn` could be granted `mode` on `res` right now.
  bool CanGrant(const Resource& res, TxnId txn, LockMode mode) const;

  /// Record the grant (merging with an existing grant on upgrade).
  void DoGrant(Resource* res, TxnId txn, LockMode mode);

  /// DFS over the wait-for graph: does a wait by `waiter` reach `target`?
  bool WaitReaches(TxnId waiter, TxnId target,
                   std::unordered_set<TxnId>* visited) const;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<Oid, Resource> table_;
  std::unordered_map<TxnId, TxnId> parent_;
  // Wait-for graph: one edge per blocked Acquire call, from its
  // transaction to the resource it waits for. Parallel workers of one
  // transaction may wait at once, each on its own resource.
  std::unordered_multimap<TxnId, Oid> waiting_on_;
  // Deadlock victim -> the holder whose wait closed the cycle.
  std::unordered_map<TxnId, TxnId> victims_;
  uint64_t deadlocks_ = 0;
};

}  // namespace reach
