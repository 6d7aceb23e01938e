// Fault-sweep: registry unit tests, a coverage run proving every manifest
// point is actually compiled into the production paths, and the sweep
// itself — every registered point armed with a persistent I/O error in turn
// while a full active-OODBMS workload runs over it. The invariant is
// graceful degradation: every injected failure surfaces as a clean Status
// (no exception escapes, no hang — the ctest timeout is the watchdog) and
// the database reopens intact once the fault is disarmed.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "core/reach/reach_db.h"
#include "test_util.h"
#include "testing/fault_points.h"
#include "testing/fault_registry.h"

namespace reach {
namespace {

using reach::testing::TempDir;

class FaultRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Instance().DisarmAll(); }
  void TearDown() override { FaultRegistry::Instance().DisarmAll(); }
};

TEST_F(FaultRegistryTest, ManifestPointsAreRegistered) {
  auto points = FaultRegistry::Instance().Points();
  for (const char* name : faults::kAll) {
    EXPECT_NE(std::find(points.begin(), points.end(), name), points.end())
        << "manifest point not pre-registered: " << name;
  }
}

TEST_F(FaultRegistryTest, DisabledByDefaultAndGateTracksArming) {
  auto& reg = FaultRegistry::Instance();
  EXPECT_FALSE(FaultRegistry::enabled());
  reg.ArmError(faults::kDiskSync, Status::Code::kIoError);
  EXPECT_TRUE(FaultRegistry::enabled());
  reg.DisarmAll();
  EXPECT_FALSE(FaultRegistry::enabled());
  // Unarmed evaluation is a no-op.
  EXPECT_TRUE(reg.Evaluate(faults::kDiskSync).ok());
}

TEST_F(FaultRegistryTest, NthHitCountdownAndOneShot) {
  auto& reg = FaultRegistry::Instance();
  reg.ArmError(faults::kWalAppend, Status::Code::kIoError, /*nth=*/3);
  EXPECT_TRUE(reg.Evaluate(faults::kWalAppend).ok());
  EXPECT_TRUE(reg.Evaluate(faults::kWalAppend).ok());
  Status st = reg.Evaluate(faults::kWalAppend);
  EXPECT_TRUE(st.IsIoError()) << st.ToString();
  // one_shot (the default): disarmed after firing.
  EXPECT_TRUE(reg.Evaluate(faults::kWalAppend).ok());
  EXPECT_EQ(reg.HitCount(faults::kWalAppend), 4u);
  EXPECT_EQ(reg.FiredCount(faults::kWalAppend), 1u);
  EXPECT_EQ(reg.total_fired(), 1u);
}

TEST_F(FaultRegistryTest, PersistentErrorFiresEveryHitFromNth) {
  auto& reg = FaultRegistry::Instance();
  reg.ArmError(faults::kDiskWritePage, Status::Code::kCorruption, /*nth=*/2,
               /*one_shot=*/false);
  EXPECT_TRUE(reg.Evaluate(faults::kDiskWritePage).ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(reg.Evaluate(faults::kDiskWritePage).IsCorruption());
  }
  EXPECT_EQ(reg.FiredCount(faults::kDiskWritePage), 3u);
}

TEST_F(FaultRegistryTest, CrashFaultThrows) {
  auto& reg = FaultRegistry::Instance();
  reg.ArmCrash(faults::kBufFlushAll, /*nth=*/2);
  EXPECT_TRUE(reg.Evaluate(faults::kBufFlushAll).ok());
  try {
    (void)reg.Evaluate(faults::kBufFlushAll);
    FAIL() << "expected FaultInjectedCrash";
  } catch (const FaultInjectedCrash& crash) {
    EXPECT_EQ(crash.point(), faults::kBufFlushAll);
  }
  // A crash fault is one-shot by nature: the "process" died.
  EXPECT_TRUE(reg.Evaluate(faults::kBufFlushAll).ok());
}

TEST_F(FaultRegistryTest, KeyedProbabilityIsDeterministicPerKey) {
  auto& reg = FaultRegistry::Instance();
  auto decide_all = [&](bool reversed) {
    reg.DisarmAll();
    reg.SetSeed(0xFEED);
    reg.ArmErrorWithProbability(faults::kRuleSubtxnExec,
                                Status::Code::kAborted, 0.4);
    std::vector<bool> fired(100);
    for (int i = 0; i < 100; ++i) {
      int key = reversed ? 99 - i : i;
      fired[key] =
          !reg.EvaluateKeyed(faults::kRuleSubtxnExec,
                             static_cast<uint64_t>(key))
               .ok();
    }
    return fired;
  };
  std::vector<bool> forward = decide_all(false);
  std::vector<bool> backward = decide_all(true);
  // Same seed + same key = same decision, independent of evaluation order —
  // the property the serial-vs-parallel differential test rests on.
  EXPECT_EQ(forward, backward);
  int n_fired = std::count(forward.begin(), forward.end(), true);
  EXPECT_GT(n_fired, 10);
  EXPECT_LT(n_fired, 90);

  // A different seed yields a different schedule.
  reg.DisarmAll();
  reg.SetSeed(0xBEEF);
  reg.ArmErrorWithProbability(faults::kRuleSubtxnExec, Status::Code::kAborted,
                              0.4);
  std::vector<bool> other(100);
  for (int i = 0; i < 100; ++i) {
    other[i] = !reg.EvaluateKeyed(faults::kRuleSubtxnExec,
                                  static_cast<uint64_t>(i))
                    .ok();
  }
  EXPECT_NE(forward, other);
}

TEST_F(FaultRegistryTest, DisarmAllZeroesCounters) {
  auto& reg = FaultRegistry::Instance();
  reg.ArmError(faults::kTxnBegin, Status::Code::kBusy);
  EXPECT_FALSE(reg.Evaluate(faults::kTxnBegin).ok());
  reg.DisarmAll();
  EXPECT_EQ(reg.HitCount(faults::kTxnBegin), 0u);
  EXPECT_EQ(reg.FiredCount(faults::kTxnBegin), 0u);
  EXPECT_EQ(reg.total_fired(), 0u);
}

// ---------------------------------------------------------------------------
// Workload used by the coverage run and the sweep. Statuses are deliberately
// ignored: under persistent injection most calls fail, and the assertion is
// that failure is *all* that happens — no exception, no crash, no hang.
// Rules use only kDetached coupling (never the causally-dependent modes):
// with persistent faults a dependency's outcome may never finalize, and a
// causally-dependent WaitForOutcome would deadlock the sweep.
// ---------------------------------------------------------------------------

void RunActiveWorkload(const std::string& base) {
  ReachOptions options;
  options.database.storage.buffer_pool_pages = 4;  // force eviction traffic
  auto db_or = ReachDb::Open(base, options);
  if (!db_or.ok()) return;  // clean open failure is a valid outcome
  auto db = std::move(*db_or);

  if (!db->RegisterClass(
              ClassBuilder("Obj")
                  .Attribute("n", ValueType::kInt, Value(0))
                  .Attribute("pad", ValueType::kString, Value(""))
                  .Method("poke",
                          [](Session& s, DbObject& self,
                             const std::vector<Value>&) -> Result<Value> {
                            int64_t n = self.Get("n").as_int() + 1;
                            REACH_RETURN_IF_ERROR(
                                s.SetAttr(self.oid(), "n", Value(n)));
                            return Value(n);
                          }))
           .ok()) {
    return;
  }
  auto ev = db->events()->DefineMethodEvent("poked", "Obj", "poke");
  // A cross-txn composite routes every poke through the durable event
  // history (wal.event_history.append at Signal, .replay at definition,
  // .checkpoint at Checkpoint, .carryover at Open).
  if (ev.ok()) {
    (void)db->events()->DefineComposite(
        "poke_pair", EventExpr::Seq(EventExpr::Prim(*ev), EventExpr::Prim(*ev)),
        CompositeScope::kCrossTxn, ConsumptionPolicy::kChronicle,
        /*validity_us=*/60 * 1000000);
  }
  if (ev.ok()) {
    RuleSpec immediate;
    immediate.name = "imm";
    immediate.event = *ev;
    immediate.coupling = CouplingMode::kImmediate;
    immediate.action = [](Session&, const EventOccurrence&) {
      return Status::OK();
    };
    (void)db->rules()->DefineRule(std::move(immediate));

    RuleSpec detached;
    detached.name = "det";
    detached.event = *ev;
    detached.coupling = CouplingMode::kDetached;
    detached.action = [](Session&, const EventOccurrence&) {
      return Status::OK();
    };
    (void)db->rules()->DefineRule(std::move(detached));
  }

  std::vector<Oid> oids;
  for (int batch = 0; batch < 4; ++batch) {
      Session s(db->database());
    if (!s.Begin().ok()) continue;
    for (int i = 0; i < 10; ++i) {
      auto oid = s.PersistNew("Obj", {{"pad", Value(std::string(600, 'p'))}});
      if (oid.ok()) oids.push_back(*oid);
    }
    if (!oids.empty()) (void)s.Invoke(oids.front(), "poke", {});
    if (!s.Commit().ok()) (void)s.AbortAll();
  }
  // Reads across more pages than the pool holds → fetch + evict traffic.
  {
    Session s(db->database());
    if (s.Begin().ok()) {
      for (const Oid& oid : oids) (void)s.GetAttr(oid, "n");
      (void)s.Commit();
    }
  }
  // An extent-scan query crosses query.morsel (no index on Obj, so the
  // planner cannot sidestep the scan).
  {
    Session s(db->database());
    if (s.Begin().ok()) {
      (void)db->Query(s, "select n from Obj where n >= 0");
      (void)s.Commit();
    }
  }
  // An explicitly aborted transaction.
  {
    Session s(db->database());
    if (s.Begin().ok()) {
      (void)s.PersistNew("Obj", {});
      (void)s.Abort();
    }
  }
  db->Drain();
  db->rules()->WaitDetachedIdle();
  (void)db->Checkpoint();
}

class FaultSweepTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultRegistry::Instance().DisarmAll(); }
};

// With injection enabled but nothing ever firing, run the workload once and
// demand a nonzero hit count on every manifest point — proof the hooks are
// compiled into all five components, not just declared. (The armed-but-
// unreachable sentinel is needed because the disabled-gate skips counting.)
TEST_F(FaultSweepTest, WorkloadCoversEveryManifestPoint) {
  auto& reg = FaultRegistry::Instance();
  reg.DisarmAll();
  reg.ArmError(faults::kDiskSync, Status::Code::kIoError,
               /*nth=*/1'000'000'000);
  TempDir dir;
  RunActiveWorkload(dir.DbPath());
  EXPECT_EQ(reg.total_fired(), 0u) << "sentinel unexpectedly fired";
  for (const char* point : faults::kAll) {
    EXPECT_GT(reg.HitCount(point), 0u)
        << "fault point never reached by the coverage workload: " << point;
  }
}

// The sweep proper: every point, persistent error from the first hit.
TEST_F(FaultSweepTest, EveryPointDegradesGracefullyAndRecovers) {
  auto& reg = FaultRegistry::Instance();
  auto points = reg.Points();
  ASSERT_FALSE(points.empty());
  for (const std::string& point : points) {
    SCOPED_TRACE("fault point: " + point);
    TempDir dir;
    reg.DisarmAll();
    reg.ArmError(point, Status::Code::kIoError, /*nth=*/1,
                 /*one_shot=*/false);
    EXPECT_NO_THROW(RunActiveWorkload(dir.DbPath()))
        << "injected error escaped as an exception at " << point;
    reg.DisarmAll();
    // Whatever the fault wrecked mid-flight, recovery must bring the store
    // back to a consistent, openable state once the fault clears.
    auto reopened = ReachDb::Open(dir.DbPath());
    EXPECT_TRUE(reopened.ok())
        << "database did not recover after " << point << ": "
        << reopened.status().ToString();
  }
}

// The event-history points degrade with *typed* errors, not silent loss:
// an append failure is recorded in EventManager::history_status(), a replay
// failure surfaces from DefineComposite, a checkpoint failure from
// Checkpoint — and detection itself keeps working throughout.
TEST_F(FaultSweepTest, EventHistoryFaultsSurfaceTypedErrors) {
  auto& reg = FaultRegistry::Instance();
  TempDir dir;
  ReachOptions options;
  options.events.async_composition = false;
  auto db = ReachDb::Open(dir.DbPath(), options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)
                  ->RegisterClass(ClassBuilder("Obj").Method(
                      "poke",
                      [](Session&, DbObject&,
                         const std::vector<Value>&) -> Result<Value> {
                        return Value();
                      }))
                  .ok());
  auto ev = (*db)->events()->DefineMethodEvent("poked", "Obj", "poke");
  ASSERT_TRUE(ev.ok());

  // Replay fault: DefineComposite surfaces the injected status.
  reg.ArmError(faults::kEventHistoryReplay, Status::Code::kIoError);
  auto failed = (*db)->events()->DefineComposite(
      "pair_a", EventExpr::Seq(EventExpr::Prim(*ev), EventExpr::Prim(*ev)),
      CompositeScope::kCrossTxn, ConsumptionPolicy::kChronicle,
      /*validity_us=*/60 * 1000000);
  EXPECT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsIoError()) << failed.status().ToString();
  reg.DisarmAll();

  auto pair = (*db)->events()->DefineComposite(
      "pair_b", EventExpr::Seq(EventExpr::Prim(*ev), EventExpr::Prim(*ev)),
      CompositeScope::kCrossTxn, ConsumptionPolicy::kChronicle,
      /*validity_us=*/60 * 1000000);
  ASSERT_TRUE(pair.ok());
  std::atomic<int> detected{0};
  (*db)->events()->AddEventListener(
      *pair, [&](const EventOccurrencePtr&) { detected++; });

  // Append fault: the occurrence still dispatches (degraded durability, not
  // lost detection) and the failure lands in history_status().
  reg.ArmError(faults::kEventHistoryAppend, Status::Code::kIoError, /*nth=*/1,
               /*one_shot=*/false);
  Session s((*db)->database());
  Oid obj;
  ASSERT_TRUE(s.Begin().ok());
  obj = *s.PersistNew("Obj", {});
  ASSERT_TRUE(s.Commit().ok());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(s.Begin().ok());
    (void)s.Invoke(obj, "poke");
    ASSERT_TRUE(s.Commit().ok());
  }
  (*db)->Drain();
  EXPECT_EQ(detected.load(), 1);
  EXPECT_TRUE((*db)->events()->history_status().IsIoError());
  reg.DisarmAll();

  // Checkpoint fault: ReachDb::Checkpoint propagates the typed error.
  reg.ArmError(faults::kEventHistoryCheckpoint, Status::Code::kIoError);
  Status ckpt = (*db)->Checkpoint();
  EXPECT_TRUE(ckpt.IsIoError()) << ckpt.ToString();
  reg.DisarmAll();
  EXPECT_TRUE((*db)->Checkpoint().ok());
}

// Same sweep at a later hit: the component is mid-flight rather than at the
// operation's entry, exercising cleanup paths instead of precondition paths.
TEST_F(FaultSweepTest, LateNthHitAlsoDegradesGracefully) {
  auto& reg = FaultRegistry::Instance();
  for (const char* point : faults::kAll) {
    SCOPED_TRACE(std::string("fault point: ") + point);
    TempDir dir;
    reg.DisarmAll();
    reg.ArmError(point, Status::Code::kIoError, /*nth=*/7,
                 /*one_shot=*/false);
    EXPECT_NO_THROW(RunActiveWorkload(dir.DbPath()));
    reg.DisarmAll();
    auto reopened = ReachDb::Open(dir.DbPath());
    EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
  }
}

}  // namespace
}  // namespace reach
