// sensor_burst: 64 stations x 8 sensors; each transaction is one station
// reporting 256 readings through four sentried sensor methods. The
// readings feed single-transaction composites under chronicle consumption;
// a detached rule on one measures reaction and a deferred rule on another
// puts the composition barrier on the commit path. More than 99% of the
// work is Signal, batching and composition: the method bodies touch no
// storage and no query runs.
#include <algorithm>
#include <atomic>

#include "trace.h"
#include "workloads.h"

namespace e2e {

using reach::ClassBuilder;
using reach::CouplingMode;
using reach::DbObject;
using reach::EventExpr;
using reach::EventOccurrence;
using reach::EventOccurrencePtr;
using reach::Oid;
using reach::ReachDb;
using reach::Result;
using reach::RuleSpec;
using reach::Session;
using reach::Status;
using reach::Value;
using reach::ValueType;

namespace {

constexpr int kSessions = 4;
constexpr int kStations = 64;
constexpr int kSensorsPerStation = 8;
constexpr int kReadings = 256;
/// Open-loop offered rate: about half the closed-loop capacity measured on
/// the reference host (4 cores), rounded down.
constexpr double kOfferedTps = 700;

enum Kind { kSample, kOverLimit, kTrip, kCalibrate };
constexpr const char* kMethods[] = {"sample", "overLimit", "trip",
                                    "calibrate"};

Kind Draw(Rng& rng) {
  double u = rng.Uniform();
  if (u < 0.74) return kSample;
  if (u < 0.98) return kOverLimit;
  if (u < 0.99) return kTrip;
  return kCalibrate;
}

/// Composites detected in one transaction, computed from the generated
/// readings: the reference model for chronicle consumption.
struct Detections {
  int64_t trip_after_limit = 0;  // Seq(overLimit, trip)
  int64_t calibrated_trip = 0;   // And(trip, calibrate)
  int64_t sample_burst = 0;      // History(sample, 8)
};

Detections Model(const std::vector<Kind>& readings) {
  Detections d;
  int64_t limits = 0, trips = 0, calibrations = 0, samples = 0;
  for (Kind k : readings) {
    switch (k) {
      case kSample:
        if (++samples == 8) {
          samples = 0;
          ++d.sample_burst;
        }
        break;
      case kOverLimit:
        ++limits;
        break;
      case kTrip:
        // Seq: the oldest earlier overLimit initiates and is consumed.
        if (limits > 0) {
          --limits;
          ++d.trip_after_limit;
        }
        // And: pairs with the oldest unmatched calibrate, else waits.
        if (calibrations > 0) {
          --calibrations;
          ++d.calibrated_trip;
        } else {
          ++trips;
        }
        break;
      case kCalibrate:
        if (trips > 0) {
          --trips;
          ++d.calibrated_trip;
        } else {
          ++calibrations;
        }
        break;
    }
  }
  return d;
}

class SensorBurst {
 public:
  explicit SensorBurst(uint64_t seed) : seed_(seed) {}

  Status Define(ReachDb* db) {
    ClassBuilder sensor("Sensor");
    sensor.Attribute("station", ValueType::kInt, Value(0));
    for (const char* m : kMethods) {
      sensor.Method(m, Traced([](Session&, DbObject&,
                                 const std::vector<Value>&) -> Result<Value> {
        return Value();
      }));
    }
    REACH_RETURN_IF_ERROR(db->RegisterClass(sensor));
    auto* events = db->events();
    reach::EventTypeId ev[4];
    for (int k = 0; k < 4; ++k) {
      REACH_ASSIGN_OR_RETURN(
          ev[k], events->DefineMethodEvent(std::string("Sensor_") + kMethods[k],
                                           "Sensor", kMethods[k]));
    }
    auto single = reach::CompositeScope::kSingleTxn;
    auto chronicle = reach::ConsumptionPolicy::kChronicle;
    REACH_ASSIGN_OR_RETURN(
        reach::EventTypeId trip_after_limit,
        events->DefineComposite(
            "TripAfterLimit",
            EventExpr::Seq(EventExpr::Prim(ev[kOverLimit]),
                           EventExpr::Prim(ev[kTrip])),
            single, chronicle));
    REACH_ASSIGN_OR_RETURN(
        reach::EventTypeId calibrated_trip,
        events->DefineComposite(
            "CalibratedTrip",
            EventExpr::And(EventExpr::Prim(ev[kTrip]),
                           EventExpr::Prim(ev[kCalibrate])),
            single, chronicle));
    REACH_ASSIGN_OR_RETURN(
        reach::EventTypeId sample_burst,
        events->DefineComposite(
            "SampleBurst", EventExpr::History(EventExpr::Prim(ev[kSample]), 8),
            single, chronicle));
    auto count = [](std::atomic<int64_t>* n) {
      return [n](const EventOccurrencePtr&) { ++*n; };
    };
    events->AddEventListener(trip_after_limit,
                             count(&detected_.trip_after_limit));
    events->AddEventListener(calibrated_trip,
                             count(&detected_.calibrated_trip));
    events->AddEventListener(sample_burst, count(&detected_.sample_burst));

    RuleSpec alarm;
    alarm.name = "TripAlarm";
    alarm.event = trip_after_limit;
    alarm.coupling = CouplingMode::kDetached;
    alarm.action = [this](Session&, const EventOccurrence& occ) -> Status {
      int64_t start = NowNs();
      std::vector<const EventOccurrence*> leaves;
      occ.CollectLeaves(&leaves);
      const EventOccurrence* trip = leaves.back();
      auto seq = static_cast<uint64_t>(trip->params[1].as_int());
      trace::Span span("rules.action.detached", seq);
      reactions_.Fired(seq, trip->params[2].as_int(), start);
      return Status::OK();
    };
    REACH_RETURN_IF_ERROR(db->rules()->DefineRule(std::move(alarm)).status());

    RuleSpec audit;
    audit.name = "CalibrationAudit";
    audit.event = calibrated_trip;
    audit.coupling = CouplingMode::kDeferred;
    audit.action = [this](Session&, const EventOccurrence&) -> Status {
      trace::Span span("rules.action.deferred");
      ++audits_;
      return Status::OK();
    };
    return db->rules()->DefineRule(std::move(audit)).status();
  }

  Status Load(ReachDb* db) {
    Session s(db->database());
    REACH_RETURN_IF_ERROR(s.Begin());
    for (int i = 0; i < kStations * kSensorsPerStation; ++i) {
      REACH_ASSIGN_OR_RETURN(
          Oid oid,
          s.PersistNew("Sensor", {{"station", Value(i / kSensorsPerStation)}}));
      sensors_.push_back(oid);
    }
    return s.Commit();
  }

  Outcome Transaction(Session& s, uint64_t seq, int64_t due_ns) {
    Rng rng(Mix(seed_, seq));
    const int station = static_cast<int>(rng.Range(0, kStations));
    std::vector<Kind> kinds(kReadings);
    std::vector<Oid> targets(kReadings);
    std::vector<int64_t> values(kReadings);
    for (int i = 0; i < kReadings; ++i) {
      targets[i] = sensors_[station * kSensorsPerStation +
                            rng.Range(0, kSensorsPerStation)];
      kinds[i] = Draw(rng);
      values[i] = rng.Range(0, 1000);
    }
    const Value seq_arg(static_cast<int64_t>(seq));
    const Value due_arg(due_ns);
    std::vector<std::vector<Value>> args(kReadings);
    for (int i = 0; i < kReadings; ++i) {
      args[i] = {Value(values[i]), seq_arg, due_arg};
    }

    Status st;
    {
      trace::Span root("request", seq);
      st = Begin(s);
      for (int i = 0; st.ok() && i < kReadings; ++i) {
        st = Invoke(s, targets[i], kMethods[kinds[i]], std::move(args[i]));
      }
      if (st.ok()) st = Commit(s);
    }
    if (!st.ok()) {
      (void)Abort(s);
      return Outcome::kFailed;
    }
    reactions_.Committed(seq, NowNs());
    Detections d = Model(kinds);
    expected_.trip_after_limit += d.trip_after_limit;
    expected_.calibrated_trip += d.calibrated_trip;
    expected_.sample_burst += d.sample_burst;
    return Outcome::kCommitted;
  }

  /// After a Drain: the order-insensitive composites (And, History) must
  /// equal the reference model's counts, and the deferred rule must have
  /// run once per CalibratedTrip. With two composition workers, readings
  /// of one transaction may reach the Seq compositor out of order
  /// (docs/EVENTS.md, "Ordering caveat"), so a Seq terminator can miss an
  /// initiator still in flight: Seq detections may fall short of the model
  /// but never exceed it. The shortfall is reported as
  /// events.seq_lost_ratio.
  void Check(RunResult* out) const {
    auto check = [&](const char* name, bool ok, int64_t got, int64_t want) {
      out->Require(std::string("sensor_burst.") + name, ok,
                   "detected=" + std::to_string(got) +
                       " model=" + std::to_string(want));
    };
    int64_t seq_got = detected_.trip_after_limit;
    int64_t seq_want = expected_.trip_after_limit;
    check("trip_after_limit", seq_got <= seq_want && seq_got > 0, seq_got,
          seq_want);
    check("calibrated_trip",
          detected_.calibrated_trip == expected_.calibrated_trip,
          detected_.calibrated_trip, expected_.calibrated_trip);
    check("sample_burst", detected_.sample_burst == expected_.sample_burst,
          detected_.sample_burst, expected_.sample_burst);
    check("calibration_audits", audits_ == expected_.calibrated_trip, audits_,
          expected_.calibrated_trip);
    out->Set("events.seq_lost_ratio",
             static_cast<double>(seq_want - seq_got) /
                 static_cast<double>(std::max<int64_t>(seq_want, 1)),
             "ratio", static_cast<uint64_t>(seq_want));
  }

  const ReactionLog& reactions() const { return reactions_; }

 private:
  struct Counts {
    std::atomic<int64_t> trip_after_limit{0};
    std::atomic<int64_t> calibrated_trip{0};
    std::atomic<int64_t> sample_burst{0};
  };

  uint64_t seed_;
  std::vector<Oid> sensors_;
  Counts expected_;
  Counts detected_;
  std::atomic<int64_t> audits_{0};
  ReactionLog reactions_;
};

}  // namespace

int RunSensorBurst(const Options& opt, RunResult* out) {
  // Default phases: 2 s warm-up, 20 s open loop, 10 s closed loop.
  const double scale = opt.Scale(32.0);
  const std::string base = FreshDb(opt, "sensor_burst");
  std::unique_ptr<SensorBurst> burst;
  std::unique_ptr<ReachDb> db;
  Status st = RepeatSetup(
      [&] {
        db.reset();
        burst = std::make_unique<SensorBurst>(opt.seed);
        RemoveDb(base);
      },
      [&]() -> Status {
        REACH_ASSIGN_OR_RETURN(db, ReachDb::Open(base));
        REACH_RETURN_IF_ERROR(burst->Define(db.get()));
        return burst->Load(db.get());
      },
      out);
  if (!st.ok()) return SetupFailed(st, out);

  auto sessions = OpenSessions(db.get(), kSessions);
  RequestFn txn = [&](int session, uint64_t seq, int64_t due_ns) {
    return burst->Transaction(*sessions[session], seq, due_ns);
  };
  RunOpenLoop(kSessions, kOfferedTps, 2.0 * scale, Mix(opt.seed, 1),
              kWarmupSeq, txn);
  LayerWindow window(opt.trace);
  window.Resume(db.get());
  PhaseResult open = RunOpenLoop(kSessions, kOfferedTps, 20.0 * scale,
                                 Mix(opt.seed, 2), kOpenSeq, txn);
  ReportPeakRss(out);
  PhaseResult closed = MergeSessions(
      RunClosedLoop(kSessions, 10.0 * scale, kClosedSeq, txn), 0, kSessions);
  window.Pause();
  db->Drain();
  burst->Check(out);

  ReportCommits(open, out);
  ReportThroughput(closed, out);
  ReportReactions(burst->reactions().Reactions(kOpenSeq, kClosedSeq), out);
  ReportLoadgen(open, out);
  ReportFailures({&open, &closed}, out);
  WindowCounts counts;
  counts.txns = open.attempted + closed.attempted;
  counts.detached_lag_us = burst->reactions().DetachedLag(kOpenSeq, kEndSeq);
  window.Report(counts, out);
  sessions.clear();
  db.reset();
  RemoveDb(base);
  FinishRun(opt, out);
  return 0;
}

}  // namespace e2e
