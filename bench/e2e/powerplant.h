// The §6.1 power-plant monitoring schema, rules and transaction, shared by
// the `powerplant` and `mixed` workloads.
#pragma once

#include <atomic>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness.h"
#include "layers.h"

namespace e2e {

class PowerPlant {
 public:
  static constexpr int kRivers = 256;

  explicit PowerPlant(uint64_t seed) : seed_(seed) {}

  /// Register River/Reactor/EmergencyLog, the two method events, the
  /// cross-transaction HotAndLow composite and the four rules on `db`, a
  /// fresh or a reopened database. The rules capture `this`, so the
  /// PowerPlant must outlive `db`.
  reach::Status Define(reach::ReachDb* db);

  /// Create the 256 rivers, 256 reactors and the emergency log.
  reach::Status Load(reach::ReachDb* db);

  /// One monitoring transaction of `session` (of `sessions`): sessions own
  /// disjoint rivers. 25% update the temperature and then the level, the
  /// rest the level only; 1% end in a deliberate Abort.
  Outcome Transaction(reach::Session& s, int session, int sessions,
                      uint64_t seq, int64_t due_ns);

  /// After a Drain: Σ River.reports must equal the acknowledged commits
  /// (durability and exactly-once deferred firing) and
  /// EmergencyLog.scramOrders the aborted transactions that had invoked
  /// updateWaterLevel (exclusive causal dependency).
  void CheckTotals(reach::ReachDb* db, const std::string& when, RunResult* out);

  /// Firings of the detached ReducePower rule.
  const ReactionLog& reactions() const { return reactions_; }

 private:
  uint64_t seed_;
  std::vector<reach::Oid> rivers_;
  std::unordered_map<reach::Oid, reach::Oid> reactor_of_;
  reach::Oid log_;
  std::atomic<int64_t> committed_{0};
  std::atomic<int64_t> expected_scrams_{0};
  ReactionLog reactions_;
};

}  // namespace e2e
