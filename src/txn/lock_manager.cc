#include "txn/lock_manager.h"

#include <algorithm>
#include <chrono>

namespace reach {

namespace {

/// The least mode that covers both `a` and `b`: S joined with IX is X.
LockMode JoinModes(LockMode a, LockMode b) {
  return a == b ? a : LockMode::kExclusive;
}

/// True if grants in `a` and `b` by unrelated transactions can coexist.
bool CompatibleModes(LockMode a, LockMode b) {
  return a == b && a != LockMode::kExclusive;
}

/// True if a grant in `held` already gives what `wanted` asks for.
bool Covers(LockMode held, LockMode wanted) {
  return JoinModes(held, wanted) == held;
}

}  // namespace

void LockManager::RegisterTxn(TxnId txn, TxnId parent) {
  std::lock_guard<std::mutex> lock(mu_);
  parent_[txn] = parent;
}

void LockManager::UnregisterTxn(TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  parent_.erase(txn);
  victims_.erase(txn);
}

bool LockManager::IsSelfOrAncestor(TxnId maybe_ancestor, TxnId txn) const {
  TxnId cur = txn;
  while (cur != kNoTxn) {
    if (cur == maybe_ancestor) return true;
    auto it = parent_.find(cur);
    cur = (it == parent_.end()) ? kNoTxn : it->second;
  }
  return false;
}

template <typename Fn>
bool LockManager::AnyBlocker(const Resource& res, TxnId txn, LockMode mode,
                             uint64_t seq, Fn fn) const {
  for (const Grant& g : res.grants) {
    if (g.txn == txn || CompatibleModes(mode, g.mode)) continue;
    // Moss rule: conflicting holders that are ancestors do not block.
    if (!IsSelfOrAncestor(g.txn, txn) && fn(g.txn)) return true;
  }
  if (res.queue.empty() || res.queue.front().seq >= seq) return false;
  // A request by a holder of the resource, itself or through an ancestor,
  // skips the queue.
  for (const Grant& g : res.grants) {
    if (IsSelfOrAncestor(g.txn, txn)) return false;
  }
  for (const Request& r : res.queue) {
    if (r.seq >= seq) break;
    if (CompatibleModes(mode, r.mode) || IsSelfOrAncestor(r.txn, txn)) {
      continue;
    }
    if (fn(r.txn)) return true;
  }
  return false;
}

void LockManager::DoGrant(Resource* res, const Oid& resource, TxnId txn,
                          LockMode mode) {
  for (Grant& g : res->grants) {
    if (g.txn == txn) {
      g.mode = JoinModes(g.mode, mode);
      return;
    }
  }
  res->grants.push_back({txn, mode});
  held_[txn].push_back(resource);
}

bool LockManager::WaitReaches(TxnId waiter, TxnId target,
                              std::unordered_set<TxnId>* visited) const {
  if (IsSelfOrAncestor(waiter, target)) return true;
  if (!visited->insert(waiter).second) return false;
  auto [begin, end] = waiting_on_.equal_range(waiter);
  for (auto wit = begin; wit != end; ++wit) {
    const Wait& w = wit->second;
    auto rit = table_.find(w.resource);
    if (rit == table_.end()) continue;
    if (AnyBlocker(rit->second, waiter, w.mode, w.seq, [&](TxnId blocker) {
          return WaitReaches(blocker, target, visited);
        })) {
      return true;
    }
  }
  return false;
}

Status LockManager::Acquire(TxnId txn, const Oid& resource, LockMode mode,
                            int64_t timeout_us) {
  std::unique_lock<std::mutex> lock(mu_);
  Resource& res = table_[resource];

  // Fast path: already held in a covering mode.
  for (const Grant& g : res.grants) {
    if (g.txn == txn && Covers(g.mode, mode)) return Status::OK();
  }
  const uint64_t seq = ++next_seq_;
  auto blocked = [&] {
    return AnyBlocker(res, txn, mode, seq, [](TxnId) { return true; });
  };
  if (!blocked()) {
    DoGrant(&res, resource, txn, mode);
    return Status::OK();
  }

  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::microseconds(timeout_us);
  res.queue.push_back({txn, mode, seq});
  waiting_on_.emplace(txn, Wait{resource, mode, seq});
  Status result = Status::OK();
  while (blocked()) {
    // Deadlock check: would blocking here close a cycle? A cycle exists if
    // some blocker (transitively) waits on us.
    TxnId partner = kNoTxn;
    AnyBlocker(res, txn, mode, seq, [&](TxnId blocker) {
      std::unordered_set<TxnId> visited;
      if (!WaitReaches(blocker, txn, &visited)) return false;
      partner = blocker;
      return true;
    });
    if (partner != kNoTxn) {
      ++deadlocks_;
      victims_[txn] = partner;
      result = Status::Aborted("deadlock on " + resource.ToString());
      break;
    }
    if (timeout_us >= 0) {
      if (res.cv.wait_until(lock, deadline) == std::cv_status::timeout &&
          blocked()) {
        result = Status::TimedOut("lock wait on " + resource.ToString());
        break;
      }
    } else {
      res.cv.wait(lock);
    }
  }
  std::erase_if(res.queue, [seq](const Request& r) { return r.seq == seq; });
  // Iterators do not survive other waiters' inserts (rehash), so find this
  // call's edge by its sequence number.
  auto [begin, end] = waiting_on_.equal_range(txn);
  for (auto it = begin; it != end; ++it) {
    if (it->second.seq == seq) {
      waiting_on_.erase(it);
      break;
    }
  }
  wait_ended_.notify_all();
  if (result.ok()) {
    DoGrant(&res, resource, txn, mode);
  } else if (res.grants.empty() && res.queue.empty()) {
    table_.erase(resource);  // refused: leave no entry nothing uses
    return result;
  }
  // Requests queued behind this one re-check: it no longer blocks them
  // as a request (a refused one not at all).
  WakeWaiters(res);
  return result;
}

TxnId LockManager::DeadlockPartner(TxnId victim) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = victims_.find(victim);
  return it == victims_.end() ? kNoTxn : it->second;
}

void LockManager::AwaitNotWaiting(TxnId txn, int64_t timeout_us) {
  std::unique_lock<std::mutex> lock(mu_);
  wait_ended_.wait_for(lock, std::chrono::microseconds(timeout_us),
                       [&] { return waiting_on_.count(txn) == 0; });
}

void LockManager::ReleaseAll(TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  auto hit = held_.find(txn);
  if (hit == held_.end()) return;
  for (const Oid& oid : hit->second) {
    auto it = table_.find(oid);
    if (it == table_.end()) continue;
    Resource& res = it->second;
    std::erase_if(res.grants, [txn](const Grant& g) { return g.txn == txn; });
    if (res.grants.empty() && res.queue.empty()) {
      table_.erase(it);
    } else {
      WakeWaiters(res);
    }
  }
  held_.erase(hit);
}

void LockManager::TransferLocks(TxnId child, TxnId parent) {
  std::lock_guard<std::mutex> lock(mu_);
  auto hit = held_.find(child);
  if (hit == held_.end()) return;
  std::vector<Oid> moved = std::move(hit->second);
  held_.erase(hit);
  std::vector<Oid>& parent_held = held_[parent];
  for (const Oid& oid : moved) {
    auto it = table_.find(oid);
    if (it == table_.end()) continue;
    Resource& res = it->second;
    auto grant_of = [&res](TxnId t) {
      return std::find_if(res.grants.begin(), res.grants.end(),
                          [t](const Grant& g) { return g.txn == t; });
    };
    auto cg = grant_of(child);
    if (cg == res.grants.end()) continue;
    auto pg = grant_of(parent);
    if (pg != res.grants.end()) {
      pg->mode = JoinModes(pg->mode, cg->mode);
      res.grants.erase(cg);
    } else {
      cg->txn = parent;
      parent_held.push_back(oid);
    }
    // The parent's waiting descendants no longer wait for the child.
    WakeWaiters(res);
  }
}

bool LockManager::Holds(TxnId txn, const Oid& resource, LockMode mode) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_.find(resource);
  if (it == table_.end()) return false;
  for (const Grant& g : it->second.grants) {
    if (IsSelfOrAncestor(g.txn, txn) && Covers(g.mode, mode)) return true;
  }
  return false;
}

}  // namespace reach
