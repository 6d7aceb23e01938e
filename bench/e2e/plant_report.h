// The plant-report data set (100k Measurement objects, ~24x the 1 MiB
// buffer pool), its report client and its writer, shared by the
// `plant_report` and `mixed` workloads.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "harness.h"
#include "layers.h"

namespace e2e {

class PlantReport {
 public:
  static constexpr int kObjects = 100000;
  static constexpr int kBuckets = 100;

  /// Draws every object's attributes from the seed, so each query's answer
  /// is known before it runs.
  explicit PlantReport(uint64_t seed);

  reach::Status Define(reach::ReachDb* db);
  /// Persist the objects in 1000-object transactions.
  reach::Status Load(reach::ReachDb* db);

  /// One report transaction (Begin -> Query -> Commit). Successive calls
  /// cycle a 1% filter, a count(*) over 50%, and a two-conjunct predicate
  /// whose second conjunct goes to the residual evaluator. Call from one
  /// thread only. Deadlock victims are retried.
  Outcome Report(reach::ReachDb& db, reach::Session& s, uint64_t seq);

  /// One writer transaction: sets `ack`, which no query reads, on 4 random
  /// objects, so query answers stay exact. Deadlock victims are retried.
  Outcome Write(reach::Session& s, uint64_t seq);

  /// Every answer must have matched the value known from the load.
  void Check(const std::string& prefix, RunResult* out) const;

  /// Run one report of each kind, then forget their query statistics.
  void WarmUp(reach::ReachDb& db, reach::Session& s);

  const QueryStats& query_stats() const { return stats_; }
  /// Forget the queries of a warm-up phase.
  void ResetQueryStats() { stats_ = QueryStats(); }
  /// Writer restarts because a lock it tried was busy.
  uint64_t lock_restarts() const { return lock_restarts_; }

 private:
  uint64_t seed_;
  std::vector<reach::Oid> oids_;
  std::vector<int64_t> bucket_;
  std::vector<int64_t> reading_;
  std::array<int64_t, kBuckets> count_by_bucket_{};
  std::array<int64_t, kBuckets> seq_sum_by_bucket_{};
  int64_t count_below_50_ = 0;
  std::vector<int64_t> top_readings_;  // sorted readings of buckets >= 90
  uint64_t reports_ = 0;
  QueryStats stats_;
  uint64_t lock_restarts_ = 0;
  uint64_t answers_ = 0;
  uint64_t wrong_ = 0;
  std::string first_wrong_;
};

}  // namespace e2e
