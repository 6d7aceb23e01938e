#include "core/reach/reach_db.h"

#include <cstdlib>

#include "obs/metrics.h"
#include "testing/fault_registry.h"

namespace reach {

ReachDb::~ReachDb() {
  // Drain in-flight rule work before tearing down components it may touch.
  if (rules_) rules_->WaitDetachedIdle();
  if (events_) events_->Quiesce();
  // Destruction order matters: rules detach from the transaction manager,
  // the event manager from the bus, before the database goes away.
  rules_.reset();
  events_.reset();
  db_.reset();
}

Result<std::unique_ptr<ReachDb>> ReachDb::Open(const std::string& base_path,
                                               ReachOptions options) {
  // A bad REACH_METRICS, REACH_FAULTS or REACH_FAULTS_SEED refuses the open
  // rather than running the defaults (for the fault settings: rather than
  // running a fault schedule nobody typed).
  REACH_RETURN_IF_ERROR(
      obs::MetricsSpec::Parse(std::getenv("REACH_METRICS")).status());
  REACH_RETURN_IF_ERROR(
      FaultRegistry::ValidateSpec(std::getenv("REACH_FAULTS")));
  REACH_RETURN_IF_ERROR(
      FaultRegistry::ValidateSeed(std::getenv("REACH_FAULTS_SEED")));
  auto reach = std::unique_ptr<ReachDb>(new ReachDb());
  REACH_ASSIGN_OR_RETURN(reach->db_,
                         Database::Open(base_path, options.database));
  reach->events_ =
      std::make_unique<EventManager>(reach->db_.get(), options.events);
  reach->rules_ = std::make_unique<RuleEngine>(
      reach->db_.get(), reach->events_.get(), options.rules);
  return reach;
}

Status ReachDb::Checkpoint() {
  Drain();
  if (db_->txns()->active_count() > 0) {
    return Status::FailedPrecondition(
        "checkpoint requires no active transactions");
  }
  // Event-history checkpoint first: the storage checkpoint truncates the
  // log keeping only the latest event checkpoint + tail, so writing the
  // checkpoint now minimizes what the carryover re-appends.
  REACH_RETURN_IF_ERROR(events_->CheckpointEventState());
  return db_->storage()->Checkpoint();
}

std::string ReachDb::StatsReport() {
  std::string out;
  auto add = [&](const std::string& line) { out += line + "\n"; };
  add("events signaled:       " + std::to_string(events_->signaled_count()));
  add("composites raised:     " + std::to_string(events_->composite_count()));
  add("live partials:         " + std::to_string(events_->LivePartials()));
  add("global history:        " +
      std::to_string(events_->global_history()->size()) + " / " +
      std::to_string(events_->global_history()->total()));
  RuleEngineStats rs = rules_->stats();
  add("immediate rule runs:   " + std::to_string(rs.immediate_runs));
  add("deferred rule runs:    " + std::to_string(rs.deferred_runs));
  add("detached rule runs:    " + std::to_string(rs.detached_runs));
  add("dependency skips:      " + std::to_string(rs.dependency_skips));
  add("rule failures:         " + std::to_string(rs.failures));
  add("transactions begun:    " + std::to_string(db_->txns()->begun_count()));
  add("active transactions:   " +
      std::to_string(db_->txns()->active_count()));
  add("deadlocks detected:    " +
      std::to_string(db_->txns()->locks()->deadlocks_detected()));
  BufferPool* pool = db_->storage()->buffer_pool();
  add("buffer pool hits/misses: " + std::to_string(pool->hit_count()) + "/" +
      std::to_string(pool->miss_count()));
  add("cached objects:        " +
      std::to_string(db_->persistence()->cached_objects()));
  add("object faults:         " +
      std::to_string(db_->persistence()->faults()));
  add("index maintenance ops: " +
      std::to_string(db_->indexing()->maintenance_ops()));
  return out;
}

void ReachDb::Drain() {
  // Detached rules may raise events that trigger more composition and more
  // detached rules; iterate to a fixed point (bounded).
  for (int i = 0; i < 8; ++i) {
    rules_->WaitDetachedIdle();
    events_->Quiesce();
  }
}

}  // namespace reach
