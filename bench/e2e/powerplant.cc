#include "powerplant.h"

#include <thread>

#include "trace.h"
#include "workloads.h"

namespace e2e {

using reach::ClassBuilder;
using reach::CouplingMode;
using reach::DbObject;
using reach::EventExpr;
using reach::EventOccurrence;
using reach::Oid;
using reach::ReachDb;
using reach::Result;
using reach::RuleSpec;
using reach::Session;
using reach::Status;
using reach::Value;
using reach::ValueType;

namespace {

/// Method bodies: each writes one attribute of the receiver. Arguments are
/// (value, request seq, due ns); the last two ride along into the event
/// parameters so detached rules can link back to their trigger.
reach::MethodImpl SetOwn(const char* attr) {
  return Traced([attr](Session& s, DbObject& self,
                       const std::vector<Value>& args) -> Result<Value> {
    REACH_RETURN_IF_ERROR(SetAttr(s, self.oid(), attr, args[0]));
    return Value();
  });
}

/// Whether `txn` committed. The transaction manager forgets a finished
/// transaction just before it publishes the outcome, so WaitForOutcome can
/// report NotFound for a moment; wait that window out.
Result<bool> OutcomeOf(Session& s, reach::TxnId txn) {
  for (int i = 0;; ++i) {
    auto outcome = s.db()->txns()->WaitForOutcome(txn);
    if (outcome.ok() || !outcome.status().IsNotFound() || i == 100000) {
      return outcome;
    }
    std::this_thread::yield();
  }
}

}  // namespace

Status PowerPlant::Define(ReachDb* db) {
  REACH_RETURN_IF_ERROR(db->RegisterClass(
      ClassBuilder("River")
          .Attribute("name", ValueType::kString, Value(""))
          .Attribute("waterLevel", ValueType::kInt, Value(80))
          .Attribute("waterTemp", ValueType::kDouble, Value(18.0))
          .Attribute("reports", ValueType::kInt, Value(0))
          .Method("updateWaterLevel", SetOwn("waterLevel"))
          .Method("updateWaterTemp", SetOwn("waterTemp"))));
  REACH_RETURN_IF_ERROR(db->RegisterClass(
      ClassBuilder("Reactor")
          .Attribute("name", ValueType::kString, Value(""))
          .Attribute("heatOutput", ValueType::kInt, Value(1500000))
          .Attribute("plannedPower", ValueType::kDouble, Value(1000.0))
          .Method("reducePlannedPower",
                  Traced([](Session& s, DbObject& self,
                            const std::vector<Value>& args) -> Result<Value> {
                    double now = self.Get("plannedPower").AsNumber() *
                                 (1.0 - args[0].AsNumber());
                    REACH_RETURN_IF_ERROR(
                        SetAttr(s, self.oid(), "plannedPower", Value(now)));
                    return Value();
                  }))));
  REACH_RETURN_IF_ERROR(db->RegisterClass(
      ClassBuilder("EmergencyLog")
          .Attribute("scramOrders", ValueType::kInt, Value(0))));

  auto* events = db->events();
  REACH_ASSIGN_OR_RETURN(
      reach::EventTypeId level,
      events->DefineMethodEvent("RiverLevel", "River", "updateWaterLevel"));
  REACH_ASSIGN_OR_RETURN(
      reach::EventTypeId temp,
      events->DefineMethodEvent("RiverTemp", "River", "updateWaterTemp"));
  REACH_ASSIGN_OR_RETURN(
      reach::EventTypeId hot_and_low,
      events->DefineComposite(
          "HotAndLow",
          EventExpr::Seq(EventExpr::Prim(temp), EventExpr::Prim(level),
                         reach::Correlation::kSameSource),
          reach::CompositeScope::kCrossTxn, reach::ConsumptionPolicy::kRecent,
          /*validity_us=*/10'000'000));

  auto* rules = db->rules();
  // The paper's WaterLevel rule: low level + hot water + high heat load
  // reduce the planned power output by 5%.
  RuleSpec water_level;
  water_level.name = "WaterLevel";
  water_level.priority = 5;
  water_level.event = level;
  water_level.coupling = CouplingMode::kImmediate;
  water_level.condition = [this](Session& s,
                                 const EventOccurrence& occ) -> Result<bool> {
    trace::Span span("rules.cond.immediate");
    REACH_ASSIGN_OR_RETURN(Value temp, GetAttr(s, occ.source, "waterTemp"));
    REACH_ASSIGN_OR_RETURN(
        Value heat, GetAttr(s, reactor_of_.at(occ.source), "heatOutput"));
    return occ.params[0].as_int() < 37 && temp.AsNumber() > 24.5 &&
           heat.as_int() > 1000000;
  };
  water_level.action = [this](Session& s, const EventOccurrence& occ) {
    trace::Span span("rules.action.immediate");
    return Invoke(s, reactor_of_.at(occ.source), "reducePlannedPower",
                  {Value(0.05)});
  };
  REACH_RETURN_IF_ERROR(rules->DefineRule(std::move(water_level)).status());

  // Deferred audit: one report per committed monitoring transaction.
  RuleSpec audit;
  audit.name = "AuditReport";
  audit.event = level;
  audit.coupling = CouplingMode::kDeferred;
  audit.action = [](Session& s, const EventOccurrence& occ) -> Status {
    trace::Span span("rules.action.deferred");
    REACH_ASSIGN_OR_RETURN(Value n, GetAttr(s, occ.source, "reports"));
    return SetAttr(s, occ.source, "reports", Value(n.as_int() + 1));
  };
  REACH_RETURN_IF_ERROR(rules->DefineRule(std::move(audit)).status());

  // Detached reaction to a temperature update followed by a level update
  // of the same river, across transactions.
  RuleSpec reduce;
  reduce.name = "ReducePower";
  reduce.event = hot_and_low;
  reduce.coupling = CouplingMode::kDetached;
  reduce.action = [this](Session& s, const EventOccurrence& occ) -> Status {
    int64_t start = NowNs();
    std::vector<const EventOccurrence*> leaves;
    occ.CollectLeaves(&leaves);
    const EventOccurrence* trigger = leaves.back();
    auto seq = static_cast<uint64_t>(trigger->params[1].as_int());
    trace::Span span("rules.action.detached", seq);
    reactions_.Fired(seq, trigger->params[2].as_int(), start);
    Oid reactor = reactor_of_.at(trigger->source);
    REACH_RETURN_IF_ERROR(LockExclusive(s, reactor));
    return Invoke(s, reactor, "reducePlannedPower", {Value(0.05)});
  };
  REACH_RETURN_IF_ERROR(rules->DefineRule(std::move(reduce)).status());

  // Contingency: a scram order that commits only if the monitoring
  // transaction aborts. The condition waits for that outcome so the order
  // is written only when it will commit: an increment written by a scram
  // transaction that then aborts leaks into the next one, because the
  // transaction manager releases an aborting transaction's locks before
  // PersistencePm evicts the objects it wrote from the object cache.
  RuleSpec scram;
  scram.name = "ScramOnAbort";
  scram.event = level;
  scram.coupling = CouplingMode::kExclusiveCausallyDependent;
  scram.condition = [](Session& s,
                       const EventOccurrence& occ) -> Result<bool> {
    trace::Span span("rules.cond.exc.caus.dep",
                     static_cast<uint64_t>(occ.params[1].as_int()));
    REACH_ASSIGN_OR_RETURN(bool committed, OutcomeOf(s, occ.txn));
    return !committed;
  };
  scram.action = [this](Session& s, const EventOccurrence& occ) -> Status {
    trace::Span span("rules.action.exc.caus.dep",
                     static_cast<uint64_t>(occ.params[1].as_int()));
    REACH_RETURN_IF_ERROR(LockExclusive(s, log_));
    REACH_ASSIGN_OR_RETURN(Value n, GetAttr(s, log_, "scramOrders"));
    return SetAttr(s, log_, "scramOrders", Value(n.as_int() + 1));
  };
  return rules->DefineRule(std::move(scram)).status();
}

Status PowerPlant::Load(ReachDb* db) {
  Session s(db->database());
  REACH_RETURN_IF_ERROR(s.Begin());
  for (int i = 0; i < kRivers; ++i) {
    std::string n = std::to_string(i);
    REACH_ASSIGN_OR_RETURN(
        Oid river, s.PersistNew("River", {{"name", Value("river" + n)}}));
    REACH_ASSIGN_OR_RETURN(
        Oid reactor, s.PersistNew("Reactor", {{"name", Value("block" + n)}}));
    rivers_.push_back(river);
    reactor_of_[river] = reactor;
  }
  REACH_ASSIGN_OR_RETURN(log_, s.PersistNew("EmergencyLog", {}));
  return s.Commit();
}

Outcome PowerPlant::Transaction(Session& s, int session, int sessions,
                                uint64_t seq, int64_t due_ns) {
  Rng rng(Mix(seed_, seq));
  const Oid river =
      rivers_[session + sessions * rng.Range(0, kRivers / sessions)];
  const bool with_temp = rng.Chance(0.25);
  const double temp = 15.0 + 15.0 * rng.Uniform();
  const int64_t level = rng.Range(30, 100);
  const bool deliberate_abort = rng.Chance(0.01);
  const Value seq_arg(static_cast<int64_t>(seq));
  const Value due_arg(due_ns);
  std::vector<Value> temp_args = {Value(temp), seq_arg, due_arg};
  std::vector<Value> level_args = {Value(level), seq_arg, due_arg};

  bool level_invoked = false;
  Status st;
  {
    // Only calls into REACH run inside the request span, so its children
    // account for all of it.
    trace::Span root("request", seq);
    st = Begin(s);
    if (st.ok() && with_temp) {
      st = Invoke(s, river, "updateWaterTemp", std::move(temp_args));
    }
    if (st.ok()) {
      st = Invoke(s, river, "updateWaterLevel", std::move(level_args));
      level_invoked = st.ok();
    }
    if (st.ok()) st = deliberate_abort ? Abort(s) : Commit(s);
  }
  if (st.ok() && deliberate_abort) {
    ++expected_scrams_;
    return Outcome::kDeliberateAbort;
  }
  if (st.ok()) {
    ++committed_;
    reactions_.Committed(seq, NowNs());
    return Outcome::kCommitted;
  }
  (void)Abort(s);
  if (level_invoked) ++expected_scrams_;
  return Outcome::kFailed;
}

void PowerPlant::CheckTotals(ReachDb* db, const std::string& when,
                             RunResult* out) {
  Session s(db->database());
  int64_t reports = 0;
  int64_t scrams = -1;
  Status st = s.Begin();
  for (size_t i = 0; st.ok() && i < rivers_.size(); ++i) {
    auto v = s.GetAttr(rivers_[i], "reports");
    st = v.status();
    if (st.ok()) reports += v->as_int();
  }
  if (st.ok()) {
    auto v = s.GetAttr(log_, "scramOrders");
    st = v.status();
    if (st.ok()) scrams = v->as_int();
  }
  if (st.ok()) st = s.Commit();
  out->Require("powerplant.reports_" + when,
               st.ok() && reports == committed_.load(),
               "sum River.reports=" + std::to_string(reports) +
                   " acknowledged commits=" +
                   std::to_string(committed_.load()) + " " + st.ToString());
  out->Require("powerplant.scram_orders_" + when,
               st.ok() && scrams == expected_scrams_.load(),
               "EmergencyLog.scramOrders=" + std::to_string(scrams) +
                   " aborted after updateWaterLevel=" +
                   std::to_string(expected_scrams_.load()));
}

// -- The powerplant workload -------------------------------------------------

namespace {

constexpr int kSessions = 4;
/// Open-loop offered rate: about half the closed-loop capacity measured on
/// the reference host (4 cores), rounded down.
constexpr double kOfferedTps = 4000;

}  // namespace

int RunPowerplant(const Options& opt, RunResult* out) {
  // Default phases: 2 s warm-up, 20 s open loop, 10 s closed loop.
  const double scale = opt.Scale(32.0);
  const std::string base = FreshDb(opt, "powerplant");
  std::unique_ptr<PowerPlant> plant;
  std::unique_ptr<ReachDb> db;
  Status st = RepeatSetup(
      [&] {
        db.reset();
        plant = std::make_unique<PowerPlant>(opt.seed);
        RemoveDb(base);
      },
      [&]() -> Status {
        REACH_ASSIGN_OR_RETURN(db, ReachDb::Open(base));
        REACH_RETURN_IF_ERROR(plant->Define(db.get()));
        return plant->Load(db.get());
      },
      out);
  if (!st.ok()) return SetupFailed(st, out);

  auto sessions = OpenSessions(db.get(), kSessions);
  RequestFn txn = [&](int session, uint64_t seq, int64_t due_ns) {
    return plant->Transaction(*sessions[session], session, kSessions, seq,
                              due_ns);
  };
  RunOpenLoop(kSessions, kOfferedTps, 2.0 * scale, Mix(opt.seed, 1),
              kWarmupSeq, txn);

  LayerWindow window(opt.trace);
  window.Resume(db.get());
  PhaseResult open = RunOpenLoop(kSessions, kOfferedTps, 20.0 * scale,
                                 Mix(opt.seed, 2), kOpenSeq, txn);
  window.Pause();
  ReportPeakRss(out);

  // Crash: drop the stack without a checkpoint, then reopen and re-define.
  // Draining first lets every queued rule finish, so the totals checked
  // after the reopen are exact.
  db->Drain();
  sessions.clear();
  db.reset();
  int64_t t0 = NowNs();
  auto reopened = ReachDb::Open(base);
  st = reopened.status();
  if (st.ok()) {
    db = std::move(*reopened);
    st = plant->Define(db.get());
  }
  if (!st.ok()) return SetupFailed(st, out);
  out->Set("recovery_s", SecondsSince(t0), "s");
  auto recovery_records = static_cast<double>(
      db->database()->storage()->recovery_stats().records_scanned);
  plant->CheckTotals(db.get(), "after_crash", out);

  sessions = OpenSessions(db.get(), kSessions);
  window.Resume(db.get());
  PhaseResult closed = MergeSessions(
      RunClosedLoop(kSessions, 10.0 * scale, kClosedSeq, txn), 0, kSessions);
  window.Pause();
  db->Drain();
  plant->CheckTotals(db.get(), "end", out);

  ReportCommits(open, out);
  ReportThroughput(closed, out);
  ReportReactions(plant->reactions().Reactions(kOpenSeq, kClosedSeq), out);
  ReportLoadgen(open, out);
  ReportFailures({&open, &closed}, out);

  WindowCounts counts;
  counts.txns = open.attempted + closed.attempted;
  counts.detached_lag_us = plant->reactions().DetachedLag(kOpenSeq, kEndSeq);
  counts.recovery_records = recovery_records;
  window.Report(counts, out);
  sessions.clear();
  db.reset();
  RemoveDb(base);
  FinishRun(opt, out);
  return 0;
}

}  // namespace e2e
