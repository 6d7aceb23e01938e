// Strict two-phase locking with three modes, Moss-style nested transaction
// rules (a child may acquire locks its ancestors hold), lock transfer on
// subtransaction commit, FIFO grants and wait-for-graph deadlock detection.
//
// Modes (Gray et al., "Granularity of Locks", 1976): S and X on objects and
// on class extent anchors, IX on extent anchors only. A scan holds its
// class's anchor S and locks no object; an update holds the anchor IX and
// the object X; an insert or delete holds the anchor X. Two grants by
// unrelated transactions coexist only if both are S or both are IX. A
// holder whose S and IX meet (a scanner that then updates the class) holds
// X: without an IS mode, SIX would be compatible with nothing, which is X.
//
// Grants are FIFO per resource: a request waits behind every earlier
// waiting request it conflicts with, so a stream of scans cannot starve a
// class updater. Requests by a transaction that holds the resource itself
// or through an ancestor skip the queue (a conversion, or a child working
// under its ancestor's lock): queued requests may be waiting for that very
// grant. A waiting request's wait-for edges run to the grants and to the
// earlier queued requests that block it, and a request whose wait would
// close a cycle is refused with Aborted.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace reach {

enum class LockMode { kShared, kIntentExclusive, kExclusive };

class LockManager {
 public:
  /// Make `txn` known, with its parent (kNoTxn for top-level). Required
  /// before the first Acquire.
  void RegisterTxn(TxnId txn, TxnId parent);

  /// Forget a finished transaction (after ReleaseAll/TransferLocks).
  void UnregisterTxn(TxnId txn);

  /// Acquire (or upgrade to) `mode` on `resource`. Blocks while conflicting
  /// locks are held by non-ancestors or conflicting requests queued before
  /// it. Returns Aborted if waiting would create a deadlock — the caller
  /// must then abort `txn`. `timeout_us` < 0 means wait forever.
  Status Acquire(TxnId txn, const Oid& resource, LockMode mode,
                 int64_t timeout_us = -1);

  /// Release every lock `txn` holds and wake the waiters of those
  /// resources.
  void ReleaseAll(TxnId txn);

  /// Move all of `child`'s locks to `parent` (subtransaction commit),
  /// joining modes where both hold one.
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
  /// One blocked Acquire call; a transaction's parallel workers each have
  /// their own. `seq` orders requests across all resources.
  struct Request {
    TxnId txn;
    LockMode mode;
    uint64_t seq;
  };
  struct Resource {
    std::vector<Grant> grants;
    std::vector<Request> queue;  // waiting requests, in arrival order
    std::condition_variable cv;  // signalled for this resource's waiters
  };
  /// A wait-for edge: the blocked request `seq` on `resource`.
  struct Wait {
    Oid resource;
    LockMode mode;
    uint64_t seq;
  };

  /// True if `maybe_ancestor` is `txn` or an ancestor of `txn`.
  bool IsSelfOrAncestor(TxnId maybe_ancestor, TxnId txn) const;

  /// Calls `fn(blocker)` for every transaction the request (`txn`, `mode`,
  /// `seq`) on `res` waits for: conflicting grants by non-ancestors and,
  /// unless the request skips the queue, conflicting earlier requests.
  /// Stops and returns true as soon as `fn` does.
  template <typename Fn>
  bool AnyBlocker(const Resource& res, TxnId txn, LockMode mode,
                  uint64_t seq, Fn fn) const;

  /// Record the grant (joining it with `txn`'s grant on upgrade).
  void DoGrant(Resource* res, const Oid& resource, TxnId txn, LockMode mode);

  /// DFS over the wait-for graph: does a wait by `waiter` reach `target`?
  /// Reaching an ancestor of `target` counts: it keeps its locks until
  /// `target` ends.
  bool WaitReaches(TxnId waiter, TxnId target,
                   std::unordered_set<TxnId>* visited) const;

  /// Wake the waiters of `res`, if it has any. Called with mu_ held.
  static void WakeWaiters(Resource& res) {
    if (!res.queue.empty()) res.cv.notify_all();
  }

  mutable std::mutex mu_;
  std::unordered_map<Oid, Resource> table_;
  std::unordered_map<TxnId, TxnId> parent_;
  // Resources each transaction holds a grant on: what ReleaseAll and
  // TransferLocks visit, instead of the whole table.
  std::unordered_map<TxnId, std::vector<Oid>> held_;
  // Wait-for graph: one edge per blocked Acquire call. Parallel workers of
  // one transaction may wait at once, each on its own resource.
  std::unordered_multimap<TxnId, Wait> waiting_on_;
  uint64_t next_seq_ = 0;
  // AwaitNotWaiting callers: signalled whenever a blocked Acquire returns.
  std::condition_variable wait_ended_;
  // Deadlock victim -> the holder whose wait closed the cycle.
  std::unordered_map<TxnId, TxnId> victims_;
  uint64_t deadlocks_ = 0;
};

}  // namespace reach
