// Smaller API surfaces: error paths, ToString helpers, bus introspection,
// dictionary listing, engine introspection.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/reach/reach_db.h"
#include "oodb/meta_bus.h"
#include "oodb/sentry.h"
#include "test_util.h"

namespace reach {
namespace {

using reach::testing::TempDir;

TEST(OpenErrorTest, UnwritablePathFails) {
  auto db = ReachDb::Open("/nonexistent_dir_xyz/sub/db");
  EXPECT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsIoError());
}

TEST(ToStringTest, HumanReadableForms) {
  EXPECT_EQ(Value(std::vector<Value>{Value(1), Value("x")}).ToString(),
            "[1, \"x\"]");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value().ToString(), "null");

  EventRegistry registry;
  auto e1 = *registry.RegisterMethodEvent("E1", "C", "m1");
  auto e2 = *registry.RegisterMethodEvent("E2", "C", "m2");
  auto expr = EventExpr::Seq(EventExpr::Prim(e1),
                             EventExpr::History(EventExpr::Prim(e2), 3));
  EXPECT_EQ(expr->ToString(), "seq(E" + std::to_string(e1) + ", history(E" +
                                  std::to_string(e2) + ", n=3))");

  EventOccurrence occ;
  occ.type = e1;
  occ.timestamp = 5;
  occ.sequence = 2;
  occ.txn = 7;
  EXPECT_NE(occ.ToString().find("txn=7"), std::string::npos);

  SentryEvent ev;
  ev.kind = SentryKind::kMethodAfter;
  ev.class_name = "River";
  ev.member = "update";
  EXPECT_EQ(ev.ToString(), "method-after River::update");
}

TEST(MetaBusTest, PolicyManagerNamesListed) {
  TempDir dir;
  auto db = Database::Open(dir.DbPath());
  ASSERT_TRUE(db.ok());
  auto names = (*db)->bus()->PolicyManagerNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "Change PM"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "Indexing PM"),
            names.end());
}

TEST(DictionaryTest, NamesEnumerated) {
  TempDir dir;
  auto db = Database::Open(dir.DbPath());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(
      (*db)->types()->RegisterClass(ClassBuilder("Thing").Build()).ok());
  Session s(db->get());
  ASSERT_TRUE(s.Begin().ok());
  auto a = s.PersistNew("Thing", {});
  ASSERT_TRUE(s.Bind("alpha", *a).ok());
  ASSERT_TRUE(s.Bind("beta", *a).ok());
  ASSERT_TRUE(s.Commit().ok());
  auto names = (*db)->dictionary()->Names();
  ASSERT_TRUE(names.ok());
  // Names also lists the __extent::Thing anchor; only user names are
  // checked here.
  EXPECT_NE(std::find(names->begin(), names->end(), "alpha"), names->end());
  EXPECT_NE(std::find(names->begin(), names->end(), "beta"), names->end());
}

// The dictionary is one root object rewritten whole by every binding. An
// abort undoes it physically, so a second binder that wrote over the
// aborting transaction's image would lose its committed binding. The
// binder therefore X-locks the root: B waits for A here.
TEST(DictionaryTest, AbortDoesNotLoseAnotherTxnsBinding) {
  TempDir dir;
  auto db = Database::Open(dir.DbPath());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(
      (*db)->types()->RegisterClass(ClassBuilder("Thing").Build()).ok());
  Session a(db->get());
  ASSERT_TRUE(a.Begin().ok());
  auto thing = a.PersistNew("Thing", {});
  ASSERT_TRUE(thing.ok());
  ASSERT_TRUE(a.Commit().ok());

  ASSERT_TRUE(a.Begin().ok());
  ASSERT_TRUE(a.Bind("alpha", *thing).ok());
  Status b_status = Status::Aborted("not run");
  std::thread b_thread([&] {
    Session b(db->get());
    b_status = b.Begin();
    if (b_status.ok()) b_status = b.Bind("beta", *thing);
    if (b_status.ok()) b_status = b.Commit();
  });
  // Give B time to bind over A's uncommitted image if nothing stops it.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(a.Abort().ok());
  b_thread.join();
  ASSERT_TRUE(b_status.ok()) << b_status.ToString();
  auto beta = (*db)->dictionary()->Lookup("beta");
  ASSERT_TRUE(beta.ok()) << "committed binding lost by another txn's abort: "
                         << beta.status().ToString();
  EXPECT_EQ(*beta, *thing);
  EXPECT_TRUE((*db)->dictionary()->Lookup("alpha").status().IsNotFound());
}

TEST(RuleEngineIntrospection, NamesStatsOptions) {
  TempDir dir;
  auto db = ReachDb::Open(dir.DbPath());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->RegisterClass(
                    ClassBuilder("T").Attribute("a", ValueType::kInt,
                                                Value(0)))
                  .ok());
  auto ev = (*db)->events()->DefineStateChangeEvent("a_set", "T", "a");
  for (const char* name : {"zeta", "alpha"}) {
    RuleSpec spec;
    spec.name = name;
    spec.event = *ev;
    spec.coupling = CouplingMode::kDeferred;
    spec.action = [](Session&, const EventOccurrence&) {
      return Status::OK();
    };
    ASSERT_TRUE((*db)->rules()->DefineRule(std::move(spec)).ok());
  }
  auto names = (*db)->rules()->RuleNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");  // sorted
  EXPECT_TRUE((*db)->rules()->StatsOf("nope").status().IsNotFound());
  EXPECT_EQ((*db)->rules()->FindRule("nope"), nullptr);
  EXPECT_EQ((*db)->rules()->options().multi_rule_execution,
            RuleEngineOptions::Execution::kSerialRingSequence);
  // Duplicate names rejected.
  RuleSpec dup;
  dup.name = "alpha";
  dup.event = *ev;
  dup.action = [](Session&, const EventOccurrence&) { return Status::OK(); };
  EXPECT_TRUE((*db)->rules()->DefineRule(std::move(dup))
                  .status()
                  .IsAlreadyExists());
}

TEST(EventRegistryIntrospection, AllEventsSortedById) {
  TempDir dir;
  auto db = ReachDb::Open(dir.DbPath());
  ASSERT_TRUE(db.ok());
  (void)(*db)->events()->DefinePeriodicEvent("tick", 1000000);
  (void)(*db)->events()->DefineFlowEvent("on_commit",
                                         SentryKind::kTxnCommit);
  auto all = (*db)->events()->registry()->AllEvents();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_LT(all[0]->id, all[1]->id);
  EXPECT_EQ(all[0]->name, "tick");
}

TEST(SessionErrorPaths, OperationsOutsideTransactions) {
  TempDir dir;
  auto db = ReachDb::Open(dir.DbPath());
  ASSERT_TRUE(db.ok());
  ClassBuilder builder("T");
  ASSERT_TRUE((*db)->RegisterClass(builder).ok());
  Session s((*db)->database());
  EXPECT_TRUE(s.PersistNew("T", {}).status().IsFailedPrecondition());
  EXPECT_TRUE(s.Fetch(Oid{1, 0, 1}).status().IsFailedPrecondition());
  EXPECT_TRUE(s.Commit().IsFailedPrecondition());
  EXPECT_TRUE(s.Abort().IsFailedPrecondition());
  // Unknown class.
  ASSERT_TRUE(s.Begin().ok());
  EXPECT_TRUE(s.PersistNew("Nope", {}).status().IsNotFound());
  EXPECT_TRUE(s.PersistNew("T", {{"ghost", Value(1)}}).status().IsNotFound());
  ASSERT_TRUE(s.Commit().ok());
}

TEST(SentriedNative, ConstMethodAndResultCapture) {
  MetaBus bus;
  struct Gauge {
    int reading() const { return 42; }
  };
  struct CapturePm : PolicyManager {
    std::string name() const override { return "cap"; }
    void OnEvent(const SentryEvent& event) override { last = event; }
    SentryEvent last;
  } pm;
  bus.Subscribe(&pm, SentryKind::kMethodAfter, "Gauge", "reading");
  const Sentried<Gauge> gauge(&bus, "Gauge", Gauge{});
  int v = gauge.Call("reading", &Gauge::reading);
  EXPECT_EQ(v, 42);
  EXPECT_EQ(pm.last.result, Value(42));
}

}  // namespace
}  // namespace reach
