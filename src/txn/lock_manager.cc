#include "txn/lock_manager.h"

#include <chrono>

namespace reach {

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

bool LockManager::CanGrant(const Resource& res, TxnId txn,
                           LockMode mode) const {
  for (const Grant& g : res.grants) {
    if (g.txn == txn) continue;  // own grant: upgrade handled by caller
    bool conflict =
        (mode == LockMode::kExclusive || g.mode == LockMode::kExclusive);
    if (!conflict) continue;
    // Moss rule: conflicting holders that are ancestors do not block.
    if (!IsSelfOrAncestor(g.txn, txn)) return false;
  }
  return true;
}

void LockManager::DoGrant(Resource* res, TxnId txn, LockMode mode) {
  for (Grant& g : res->grants) {
    if (g.txn == txn) {
      if (mode == LockMode::kExclusive) g.mode = LockMode::kExclusive;
      return;
    }
  }
  res->grants.push_back({txn, mode});
}

bool LockManager::WaitReaches(TxnId waiter, TxnId target,
                              std::unordered_set<TxnId>* visited) const {
  if (waiter == target) return true;
  if (!visited->insert(waiter).second) return false;
  auto [begin, end] = waiting_on_.equal_range(waiter);
  for (auto wit = begin; wit != end; ++wit) {
    auto rit = table_.find(wit->second);
    if (rit == table_.end()) continue;
    for (const Grant& g : rit->second.grants) {
      if (g.txn == waiter) continue;
      if (WaitReaches(g.txn, target, visited)) return true;
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
    if (g.txn == txn &&
        (g.mode == LockMode::kExclusive || mode == LockMode::kShared)) {
      return Status::OK();
    }
  }

  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::microseconds(timeout_us);
  ++res.waiters;
  waiting_on_.emplace(txn, resource);
  Status result = Status::OK();
  while (!CanGrant(res, txn, mode)) {
    // Deadlock check: would blocking here close a cycle? A cycle exists if
    // some conflicting holder (transitively) waits on us.
    TxnId partner = kNoTxn;
    for (const Grant& g : res.grants) {
      if (g.txn == txn) continue;
      bool conflict =
          (mode == LockMode::kExclusive || g.mode == LockMode::kExclusive);
      if (!conflict || IsSelfOrAncestor(g.txn, txn)) continue;
      std::unordered_set<TxnId> visited;
      if (WaitReaches(g.txn, txn, &visited)) {
        partner = g.txn;
        break;
      }
    }
    if (partner != kNoTxn) {
      ++deadlocks_;
      victims_[txn] = partner;
      result = Status::Aborted("deadlock on " + resource.ToString());
      break;
    }
    if (timeout_us >= 0) {
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout &&
          !CanGrant(res, txn, mode)) {
        result = Status::TimedOut("lock wait on " + resource.ToString());
        break;
      }
    } else {
      cv_.wait(lock);
    }
  }
  --res.waiters;
  // Iterators do not survive other waiters' inserts (rehash), so find an
  // edge of this call by value: equal edges are interchangeable.
  auto [begin, end] = waiting_on_.equal_range(txn);
  for (auto it = begin; it != end; ++it) {
    if (it->second == resource) {
      waiting_on_.erase(it);
      break;
    }
  }
  if (result.ok()) {
    DoGrant(&res, txn, mode);
  } else if (res.grants.empty() && res.waiters == 0) {
    table_.erase(resource);  // refused: leave no entry nothing uses
  }
  return result;
}

Status LockManager::AcquireSharedBatch(TxnId txn,
                                       const std::vector<Oid>& resources,
                                       int64_t timeout_us) {
  std::vector<Oid> contended;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Oid& oid : resources) {
      Resource& res = table_[oid];
      bool held = false;
      for (const Grant& g : res.grants) {
        if (g.txn == txn) {  // any own grant covers a shared request
          held = true;
          break;
        }
      }
      if (held) continue;
      if (CanGrant(res, txn, LockMode::kShared)) {
        DoGrant(&res, txn, LockMode::kShared);
      } else {
        contended.push_back(oid);
      }
    }
  }
  for (const Oid& oid : contended) {
    Status st = Acquire(txn, oid, LockMode::kShared, timeout_us);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

TxnId LockManager::DeadlockPartner(TxnId victim) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = victims_.find(victim);
  return it == victims_.end() ? kNoTxn : it->second;
}

void LockManager::AwaitNotWaiting(TxnId txn, int64_t timeout_us) {
  std::unique_lock<std::mutex> lock(mu_);
  // Only releases and transfers notify cv_, so a granted `txn` is seen at
  // the latest when it next releases or transfers its locks.
  cv_.wait_for(lock, std::chrono::microseconds(timeout_us),
               [&] { return waiting_on_.count(txn) == 0; });
}

void LockManager::ReleaseAll(TxnId txn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = table_.begin(); it != table_.end();) {
      auto& grants = it->second.grants;
      for (size_t i = 0; i < grants.size();) {
        if (grants[i].txn == txn) {
          grants.erase(grants.begin() + i);
        } else {
          ++i;
        }
      }
      if (grants.empty() && it->second.waiters == 0) {
        it = table_.erase(it);
      } else {
        ++it;
      }
    }
  }
  cv_.notify_all();
}

void LockManager::TransferLocks(TxnId child, TxnId parent) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [oid, res] : table_) {
      int child_idx = -1, parent_idx = -1;
      for (size_t i = 0; i < res.grants.size(); ++i) {
        if (res.grants[i].txn == child) child_idx = static_cast<int>(i);
        if (res.grants[i].txn == parent) parent_idx = static_cast<int>(i);
      }
      if (child_idx < 0) continue;
      if (parent_idx >= 0) {
        if (res.grants[child_idx].mode == LockMode::kExclusive) {
          res.grants[parent_idx].mode = LockMode::kExclusive;
        }
        res.grants.erase(res.grants.begin() + child_idx);
      } else {
        res.grants[child_idx].txn = parent;
      }
    }
  }
  cv_.notify_all();
}

bool LockManager::Holds(TxnId txn, const Oid& resource, LockMode mode) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_.find(resource);
  if (it == table_.end()) return false;
  for (const Grant& g : it->second.grants) {
    if (!IsSelfOrAncestor(g.txn, txn)) continue;
    if (g.mode == LockMode::kExclusive || mode == LockMode::kShared) {
      return true;
    }
  }
  return false;
}

}  // namespace reach
