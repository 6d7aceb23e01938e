#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "oodb/database.h"
#include "oodb/sentry.h"
#include "oodb/session.h"
#include "query/query_pm.h"
#include "test_util.h"

namespace reach {
namespace {

using reach::testing::TempDir;

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(42).is_int());
  EXPECT_TRUE(Value(3.5).is_double());
  EXPECT_TRUE(Value("s").is_string());
  EXPECT_TRUE(Value(Oid{1, 2, 3}).is_ref());
  EXPECT_TRUE(Value(std::vector<Value>{Value(1)}).is_list());
  EXPECT_EQ(Value(42).as_int(), 42);
  EXPECT_EQ(Value("hi").as_string(), "hi");
}

TEST(ValueTest, NumericComparisonAcrossTypes) {
  EXPECT_EQ(Value(2), Value(2.0));
  EXPECT_TRUE(Value(1) < Value(1.5));
  EXPECT_TRUE(Value(2.5) > Value(2));
}

TEST(ValueTest, EncodeDecodeRoundTrip) {
  std::vector<Value> cases = {
      Value(), Value(true), Value(false), Value(int64_t{-123456789}),
      Value(2.718281828), Value(std::string("hello \"world\"\n")),
      Value(Oid{7, 8, 9}),
      Value(std::vector<Value>{Value(1), Value("two"),
                               Value(std::vector<Value>{Value(3.0)})}),
  };
  for (const Value& v : cases) {
    std::string buf;
    v.Encode(&buf);
    size_t pos = 0;
    auto decoded = Value::Decode(buf, &pos);
    ASSERT_TRUE(decoded.ok()) << v.ToString();
    EXPECT_EQ(*decoded, v) << v.ToString();
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(ValueTest, DecodeTruncatedFails) {
  Value v(std::string("payload"));
  std::string buf;
  v.Encode(&buf);
  buf.resize(buf.size() - 2);
  size_t pos = 0;
  EXPECT_TRUE(Value::Decode(buf, &pos).status().IsCorruption());
}

// ---------------------------------------------------------------------------
// TypeSystem + DbObject
// ---------------------------------------------------------------------------

TEST(TypeSystemTest, RegistrationAndInheritance) {
  TypeSystem ts;
  ASSERT_TRUE(ts.RegisterClass(
                    ClassBuilder("Sensor")
                        .Attribute("id", ValueType::kInt, Value(0))
                        .Attribute("reading", ValueType::kDouble, Value(0.0))
                        .Build())
                  .ok());
  ASSERT_TRUE(ts.RegisterClass(ClassBuilder("TempSensor", "Sensor")
                                   .Attribute("unit", ValueType::kString,
                                              Value("C"))
                                   .Build())
                  .ok());
  EXPECT_TRUE(ts.IsSubclassOf("TempSensor", "Sensor"));
  EXPECT_TRUE(ts.IsSubclassOf("Sensor", "Sensor"));
  EXPECT_FALSE(ts.IsSubclassOf("Sensor", "TempSensor"));
  EXPECT_NE(ts.ResolveAttribute("TempSensor", "reading"), nullptr);
  EXPECT_NE(ts.ResolveAttribute("TempSensor", "unit"), nullptr);
  EXPECT_EQ(ts.ResolveAttribute("Sensor", "unit"), nullptr);
  const auto& all = ts.Find("TempSensor")->record_attributes();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0]->name, "id");  // base attributes first
  auto subs = ts.SelfAndSubclasses("Sensor");
  EXPECT_EQ(subs.size(), 2u);
}

TEST(TypeSystemTest, DuplicateAndMissingParentRejected) {
  TypeSystem ts;
  ASSERT_TRUE(ts.RegisterClass(ClassBuilder("A").Build()).ok());
  EXPECT_TRUE(ts.RegisterClass(ClassBuilder("A").Build()).IsAlreadyExists());
  EXPECT_TRUE(
      ts.RegisterClass(ClassBuilder("B", "Nope").Build()).IsNotFound());
}

// Records store names and the attribute count as u16s: a class that would
// not fit is refused at registration instead of corrupting its records.
TEST(TypeSystemTest, ClassesPastTheRecordLimitsRejected) {
  TypeSystem ts;
  EXPECT_TRUE(
      ts.RegisterClass(ClassBuilder(std::string(70000, 'C')).Build())
          .IsInvalidArgument());
  EXPECT_TRUE(ts.RegisterClass(ClassBuilder("LongAttr")
                                   .Attribute(std::string(70000, 'a'),
                                              ValueType::kInt, Value(0))
                                   .Build())
                  .IsInvalidArgument());
  EXPECT_FALSE(ts.IsRegistered("LongAttr"));
  const std::string at_limit(kMaxRecordField, 'c');
  EXPECT_TRUE(ts.RegisterClass(ClassBuilder(at_limit).Build()).ok());

  // 40,000 attributes on the base, the rest on subclasses: the limit counts
  // inherited attributes, and a redeclared name only once.
  auto wide = [](const std::string& name, const std::string& parent,
                 int from, int to) {
    ClassBuilder b(name, parent);
    for (int i = from; i < to; ++i) {
      b.Attribute("a" + std::to_string(i), ValueType::kInt, Value(i));
    }
    return b.Build();
  };
  ASSERT_TRUE(ts.RegisterClass(wide("Wide", "", 0, 40000)).ok());
  EXPECT_TRUE(ts.RegisterClass(wide("TooWide", "Wide", 40000, 65536))
                  .IsInvalidArgument());
  EXPECT_FALSE(ts.IsRegistered("TooWide"));
  auto full = wide("Full", "Wide", 39999, 65535);  // a39999 redeclared
  ASSERT_TRUE(ts.RegisterClass(std::move(full)).ok());
  EXPECT_EQ(ts.Find("Full")->record_attributes().size(), kMaxRecordField);
}

TEST(TypeSystemTest, VirtualMethodDispatch) {
  TypeSystem ts;
  ASSERT_TRUE(
      ts.RegisterClass(
            ClassBuilder("Base")
                .Method("speak",
                        [](Session&, DbObject&,
                           const std::vector<Value>&) -> Result<Value> {
                          return Value("base");
                        })
                .Build())
          .ok());
  ASSERT_TRUE(
      ts.RegisterClass(
            ClassBuilder("Derived", "Base")
                .Method("speak",
                        [](Session&, DbObject&,
                           const std::vector<Value>&) -> Result<Value> {
                          return Value("derived");
                        })
                .Build())
          .ok());
  EXPECT_NE(ts.ResolveMethod("Derived", "speak"), nullptr);
  // Most-derived implementation wins.
  Session dummy(nullptr);
  DbObject obj("Derived");
  auto r = ts.ResolveMethod("Derived", "speak")->impl(dummy, obj, {});
  EXPECT_EQ(r->as_string(), "derived");
  auto r2 = ts.ResolveMethod("Base", "speak")->impl(dummy, obj, {});
  EXPECT_EQ(r2->as_string(), "base");
}

TEST(DbObjectTest, SerializeRoundTrip) {
  DbObject obj("Reactor");
  obj.Set("name", Value("Block A"));
  obj.Set("output", Value(1000000));
  obj.Set("online", Value(true));
  obj.Set("neighbors", Value(std::vector<Value>{Value(Oid{1, 1, 1})}));
  std::string bytes = obj.Serialize();
  auto back = DbObject::Deserialize(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->class_name(), "Reactor");
  EXPECT_EQ(back->Get("name"), Value("Block A"));
  EXPECT_EQ(back->Get("output"), Value(1000000));
  EXPECT_EQ(back->Get("online"), Value(true));
  EXPECT_TRUE(back->Get("neighbors").is_list());
}

TEST(RecordViewTest, ReadsAttributesInPlace) {
  DbObject obj("Reactor");
  obj.Set("name", Value("Block A"));
  obj.Set("output", Value(1000000));
  obj.Set("neighbors", Value(std::vector<Value>{Value(Oid{1, 1, 1})}));
  obj.Set("load", Value(0.5));
  const std::string bytes = obj.Serialize();
  auto view = RecordView::Parse(bytes);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->class_name(), "Reactor");
  for (const auto& [name, value] : obj.attributes()) {
    auto got = view->Get(name);
    ASSERT_TRUE(got.ok()) << name << ": " << got.status().ToString();
    EXPECT_EQ(*got, value) << name;
  }
  EXPECT_TRUE(view->Get("missing").status().IsNotFound());
  size_t visited = 0;
  ASSERT_TRUE(view->ForEach([&](std::string_view name, Value v) {
                    ++visited;
                    EXPECT_EQ(v, obj.Get(std::string(name)));
                  }).ok());
  EXPECT_EQ(visited, obj.attributes().size());
}

TEST(RecordViewTest, WithPatchesOrAppendsOneAttribute) {
  DbObject obj("Reactor");
  obj.Set("name", Value("Block A"));
  obj.Set("output", Value(7));
  const std::string bytes = obj.Serialize();
  auto view = RecordView::Parse(bytes);
  ASSERT_TRUE(view.ok());

  // Replaced in place, with a value of another size.
  auto patched = view->With("name", Value("a much longer block name"));
  ASSERT_TRUE(patched.ok());
  auto back = DbObject::Deserialize(*patched);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->Get("name"), Value("a much longer block name"));
  EXPECT_EQ(back->Get("output"), Value(7));
  EXPECT_EQ(back->attributes().size(), 2u);

  // Appended when the record does not carry it.
  auto grown = view->With("online", Value(true));
  ASSERT_TRUE(grown.ok());
  back = DbObject::Deserialize(*grown);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->Get("online"), Value(true));
  EXPECT_EQ(back->Get("name"), Value("Block A"));
  EXPECT_EQ(back->attributes().size(), 3u);
}

TEST(RecordViewTest, TruncatedRecordIsCorruption) {
  DbObject obj("Reactor");
  obj.Set("name", Value("Block A"));
  const std::string bytes = obj.Serialize();
  EXPECT_TRUE(RecordView::Parse(std::string_view(bytes).substr(0, 3))
                  .status()
                  .IsCorruption());
  auto view = RecordView::Parse(std::string_view(bytes).substr(
      0, bytes.size() - 2));  // cuts the string value short
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(view->Get("name").status().IsCorruption());
  EXPECT_TRUE(DbObject::Deserialize(std::string_view(bytes).substr(
                                        0, bytes.size() - 2))
                  .status()
                  .IsCorruption());
}

// ---------------------------------------------------------------------------
// MetaBus + Sentried
// ---------------------------------------------------------------------------

class RecordingPm : public PolicyManager {
 public:
  std::string name() const override { return "Recorder"; }
  void OnEvent(const SentryEvent& event) override {
    events.push_back(event);
  }
  std::vector<SentryEvent> events;
};

TEST(MetaBusTest, ExactAndWildcardInterest) {
  MetaBus bus;
  RecordingPm exact, wildcard;
  bus.Subscribe(&exact, SentryKind::kMethodAfter, "River",
                "updateWaterLevel");
  bus.Subscribe(&wildcard, SentryKind::kMethodAfter);

  EXPECT_TRUE(bus.Monitored(SentryKind::kMethodAfter, "River",
                            "updateWaterLevel"));
  EXPECT_TRUE(bus.Monitored(SentryKind::kMethodAfter, "Other", "m"));
  EXPECT_FALSE(bus.Monitored(SentryKind::kStateChange, "River", "x"));

  SentryEvent ev;
  ev.kind = SentryKind::kMethodAfter;
  ev.class_name = "River";
  ev.member = "updateWaterLevel";
  EXPECT_EQ(bus.Announce(ev), 2u);
  ev.class_name = "Other";
  ev.member = "m";
  EXPECT_EQ(bus.Announce(ev), 1u);
  EXPECT_EQ(exact.events.size(), 1u);
  EXPECT_EQ(wildcard.events.size(), 2u);
}

TEST(MetaBusTest, UnsubscribeRebuildsInterest) {
  MetaBus bus;
  RecordingPm pm;
  bus.Subscribe(&pm, SentryKind::kPersist, "River", "");
  EXPECT_TRUE(bus.Monitored(SentryKind::kPersist, "River", ""));
  bus.Unsubscribe(&pm);
  EXPECT_FALSE(bus.Monitored(SentryKind::kPersist, "River", ""));
  SentryEvent ev;
  ev.kind = SentryKind::kPersist;
  ev.class_name = "River";
  EXPECT_EQ(bus.Announce(ev), 0u);
  EXPECT_EQ(bus.useless_announcements(), 1u);
}

struct NativeRiver {
  int level = 0;
  void updateWaterLevel(int x) { level = x; }
  double getWaterTemp() const { return 25.5; }
};

TEST(SentryTest, MonitoredCallsAnnounced) {
  MetaBus bus;
  RecordingPm pm;
  bus.Subscribe(&pm, SentryKind::kMethodAfter, "River", "updateWaterLevel");

  Sentried<NativeRiver> river(&bus, "River", NativeRiver{});
  river.Call("updateWaterLevel", &NativeRiver::updateWaterLevel, 35);
  EXPECT_EQ(river.get().level, 35);
  ASSERT_EQ(pm.events.size(), 1u);
  EXPECT_EQ(pm.events[0].class_name, "River");
  EXPECT_EQ(pm.events[0].member, "updateWaterLevel");
  ASSERT_EQ(pm.events[0].args.size(), 1u);
  EXPECT_EQ(pm.events[0].args[0], Value(35));

  // Unmonitored method: no announcement (useless overhead avoided).
  double t = river.Call("getWaterTemp", &NativeRiver::getWaterTemp);
  EXPECT_DOUBLE_EQ(t, 25.5);
  EXPECT_EQ(pm.events.size(), 1u);
}

TEST(SentryTest, BeforeAndAfterEvents) {
  MetaBus bus;
  RecordingPm pm;
  bus.Subscribe(&pm, SentryKind::kMethodBefore, "River", "updateWaterLevel");
  bus.Subscribe(&pm, SentryKind::kMethodAfter, "River", "updateWaterLevel");
  Sentried<NativeRiver> river(&bus, "River", NativeRiver{});
  river.Call("updateWaterLevel", &NativeRiver::updateWaterLevel, 10);
  ASSERT_EQ(pm.events.size(), 2u);
  EXPECT_EQ(pm.events[0].kind, SentryKind::kMethodBefore);
  EXPECT_EQ(pm.events[1].kind, SentryKind::kMethodAfter);
}

// ---------------------------------------------------------------------------
// Database + Session
// ---------------------------------------------------------------------------

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open(dir_.DbPath());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    ASSERT_TRUE(
        db_->types()
            ->RegisterClass(
                ClassBuilder("Reactor")
                    .Attribute("name", ValueType::kString, Value(""))
                    .Attribute("output", ValueType::kInt, Value(0))
                    .Method("boost",
                            [](Session& s, DbObject& self,
                               const std::vector<Value>& args)
                                -> Result<Value> {
                              int64_t delta =
                                  args.empty() ? 1 : args[0].as_int();
                              int64_t now =
                                  self.Get("output").as_int() + delta;
                              REACH_RETURN_IF_ERROR(s.SetAttr(
                                  self.oid(), "output", Value(now)));
                              return Value(now);
                            })
                    .Build())
            .ok());
  }
  TempDir dir_;
  std::unique_ptr<Database> db_;
};

TEST_F(SessionTest, PersistFetchByNameAcrossSessions) {
  Oid oid;
  {
    Session s(db_.get());
    ASSERT_TRUE(s.Begin().ok());
    auto r = s.PersistNew("Reactor",
                          {{"name", Value("Block A")}, {"output", Value(5)}});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    oid = *r;
    ASSERT_TRUE(s.Bind("Block A", oid).ok());
    ASSERT_TRUE(s.Commit().ok());
  }
  Session s(db_.get());
  ASSERT_TRUE(s.Begin().ok());
  auto obj = s.FetchByName("Block A");
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ((*obj)->Get("name"), Value("Block A"));
  EXPECT_EQ((*obj)->Get("output"), Value(5));
  ASSERT_TRUE(s.Commit().ok());
}

TEST_F(SessionTest, SetAttrWriteThroughAndAbortRollback) {
  Session s(db_.get());
  ASSERT_TRUE(s.Begin().ok());
  auto oid = s.PersistNew("Reactor", {{"output", Value(100)}});
  ASSERT_TRUE(s.Commit().ok());

  ASSERT_TRUE(s.Begin().ok());
  ASSERT_TRUE(s.SetAttr(*oid, "output", Value(200)).ok());
  EXPECT_EQ(*s.GetAttr(*oid, "output"), Value(200));
  ASSERT_TRUE(s.Abort().ok());

  ASSERT_TRUE(s.Begin().ok());
  EXPECT_EQ(*s.GetAttr(*oid, "output"), Value(100));  // rolled back
  ASSERT_TRUE(s.Commit().ok());
}

// An aborting transaction's undo restores the stored records before it
// releases its locks: readers blocked on T1's X locks must read the pre-T1
// values after T1 aborts, never the aborted ones. Looped with several
// blocked readers, because the window between undo and lock release is a
// race.
TEST_F(SessionTest, NextLockerNeverSeesAbortedValue) {
  constexpr int kObjects = 64;
  constexpr int kReaders = 3;
  std::vector<Oid> oids;
  Session setup(db_.get());
  ASSERT_TRUE(setup.Begin().ok());
  for (int i = 0; i < kObjects; ++i) {
    auto oid = setup.PersistNew("Reactor", {{"output", Value(i)}});
    ASSERT_TRUE(oid.ok()) << oid.status().ToString();
    oids.push_back(*oid);
  }
  ASSERT_TRUE(setup.Commit().ok());

  std::atomic<int> stale{0};
  for (int round = 0; round < 300; ++round) {
    Session t1(db_.get());
    ASSERT_TRUE(t1.Begin().ok());
    for (const Oid& oid : oids) {
      ASSERT_TRUE(t1.SetAttr(oid, "output", Value(-1)).ok());
    }
    std::atomic<int> started{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        Session s(db_.get());
        const bool began = s.Begin().ok();
        started.fetch_add(1);
        if (!began) {
          stale.fetch_add(1);
          return;
        }
        for (int k = 0; k < kObjects; ++k) {
          const int i = (k + r * kObjects / kReaders) % kObjects;
          auto v = s.GetAttr(oids[i], "output");  // blocks on T1's X lock
          if (!v.ok() || *v != Value(i)) stale.fetch_add(1);
        }
        (void)s.Commit();
      });
    }
    while (started.load() < kReaders) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_TRUE(t1.Abort().ok());  // the readers must still be joined
    for (auto& th : readers) th.join();
  }
  EXPECT_EQ(stale.load(), 0) << "reads of an aborted value";
}

// T1 writes and aborts while T2 waits for T1's X lock: T2 is granted only
// after the undo, so it reads the pre-image, through GetAttr and Fetch.
TEST_F(SessionTest, BlockedReaderReadsPreImageAfterAbort) {
  Session setup(db_.get());
  ASSERT_TRUE(setup.Begin().ok());
  auto oid = setup.PersistNew("Reactor",
                              {{"name", Value("pre")}, {"output", Value(1)}});
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(setup.Commit().ok());

  Session t1(db_.get());
  ASSERT_TRUE(t1.Begin().ok());
  ASSERT_TRUE(t1.SetAttr(*oid, "output", Value(2)).ok());
  ASSERT_TRUE(t1.SetAttr(*oid, "name", Value("aborted, and longer")).ok());

  std::atomic<bool> done{false};
  Result<Value> read = Status::Internal("not read");
  std::shared_ptr<DbObject> fetched;
  std::thread t2([&] {
    Session s(db_.get());
    if (!s.Begin().ok()) return;
    read = s.GetAttr(*oid, "output");  // waits for T1's X lock
    auto obj = s.Fetch(*oid);
    if (obj.ok()) fetched = *obj;
    (void)s.Commit();
    done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(done.load());  // still waiting for T1
  ASSERT_TRUE(t1.Abort().ok());
  t2.join();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, Value(1));
  ASSERT_NE(fetched, nullptr);
  EXPECT_EQ(fetched->Get("name"), Value("pre"));
  EXPECT_EQ(fetched->Get("output"), Value(1));
}

// A fetched object is the caller's own copy: changing it changes neither the
// store nor what any other transaction reads.
TEST_F(SessionTest, FetchedObjectIsAPrivateCopy) {
  Session s(db_.get());
  ASSERT_TRUE(s.Begin().ok());
  auto oid = s.PersistNew("Reactor", {{"output", Value(10)}});
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(s.Commit().ok());

  ASSERT_TRUE(s.Begin().ok());
  auto mine = s.Fetch(*oid);
  ASSERT_TRUE(mine.ok());
  (*mine)->Set("output", Value(99));
  (*mine)->Set("name", Value("scribbled"));
  auto again = s.Fetch(*oid);
  ASSERT_TRUE(again.ok());
  EXPECT_NE(again->get(), mine->get());
  EXPECT_EQ((*again)->Get("output"), Value(10));

  Session other(db_.get());
  ASSERT_TRUE(other.Begin().ok());
  EXPECT_EQ(*other.GetAttr(*oid, "output"), Value(10));
  auto theirs = other.Fetch(*oid);
  ASSERT_TRUE(theirs.ok());
  EXPECT_EQ((*theirs)->Get("output"), Value(10));
  EXPECT_EQ((*theirs)->Get("name"), Value(""));
  ASSERT_TRUE(other.Commit().ok());
  ASSERT_TRUE(s.Commit().ok());
}

TEST_F(SessionTest, InvokeRunsMethodInTransaction) {
  Session s(db_.get());
  ASSERT_TRUE(s.Begin().ok());
  auto oid = s.PersistNew("Reactor", {{"output", Value(10)}});
  auto r = s.Invoke(*oid, "boost", {Value(5)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, Value(15));
  EXPECT_EQ(*s.GetAttr(*oid, "output"), Value(15));
  ASSERT_TRUE(s.Commit().ok());
}

TEST_F(SessionTest, UnknownMethodAndAttrRejected) {
  Session s(db_.get());
  ASSERT_TRUE(s.Begin().ok());
  auto oid = s.PersistNew("Reactor", {});
  EXPECT_TRUE(s.Invoke(*oid, "nope").status().IsNotFound());
  EXPECT_TRUE(s.SetAttr(*oid, "nope", Value(1)).IsNotFound());
  ASSERT_TRUE(s.Commit().ok());
}

TEST_F(SessionTest, ExtentTracksPersistAndDelete) {
  Session s(db_.get());
  ASSERT_TRUE(s.Begin().ok());
  std::vector<Oid> oids;
  for (int i = 0; i < 5; ++i) {
    oids.push_back(*s.PersistNew("Reactor", {{"output", Value(i)}}));
  }
  auto extent = s.Extent("Reactor");
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ(extent->size(), 5u);
  ASSERT_TRUE(s.Delete(oids[2]).ok());
  extent = s.Extent("Reactor");
  EXPECT_EQ(extent->size(), 4u);
  EXPECT_EQ(std::find(extent->begin(), extent->end(), oids[2]),
            extent->end());
  ASSERT_TRUE(s.Commit().ok());
}

TEST_F(SessionTest, ExtentIncludesSubclasses) {
  ASSERT_TRUE(db_->types()
                  ->RegisterClass(ClassBuilder("FastReactor", "Reactor")
                                      .Build())
                  .ok());
  Session s(db_.get());
  ASSERT_TRUE(s.Begin().ok());
  ASSERT_TRUE(s.PersistNew("Reactor", {}).ok());
  ASSERT_TRUE(s.PersistNew("FastReactor", {}).ok());
  EXPECT_EQ(s.Extent("Reactor")->size(), 2u);
  EXPECT_EQ(s.Extent("Reactor", /*include_subclasses=*/false)->size(), 1u);
  EXPECT_EQ(s.Extent("FastReactor")->size(), 1u);
  ASSERT_TRUE(s.Commit().ok());
}

// Storing an object costs about what it stores in the log: one physical
// record per insert, with no extent list rewritten beside it
// (docs/STORAGE.md "Page owners").
TEST_F(SessionTest, PersistLogsAboutWhatItStores) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
  const bool was_enabled = obs::MetricsEnabled();
  registry.SetEnabled(true);
  obs::Counter* flushed = registry.counter(obs::kWalFlushedBytes);
  Session s(db_.get());
  // The class's first insert creates its extent anchor; measure after it.
  ASSERT_TRUE(s.Begin().ok());
  ASSERT_TRUE(s.PersistNew("Reactor", {}).ok());
  ASSERT_TRUE(s.Commit().ok());
  const uint64_t before = flushed->value();
  size_t stored = 0;
  ASSERT_TRUE(s.Begin().ok());
  for (int i = 0; i < 1000; ++i) {
    auto obj = s.New("Reactor");
    ASSERT_TRUE(obj.ok());
    obj->Set("name", Value(std::string(200, 'n')));
    obj->Set("output", Value(i));
    stored += obj->Serialize().size();
    ASSERT_TRUE(s.Persist(&*obj).ok());
  }
  ASSERT_TRUE(s.Commit().ok());
  const uint64_t logged = flushed->value() - before;
  registry.SetEnabled(was_enabled);
  EXPECT_GT(stored, 1000u * 200);
  EXPECT_LT(logged, 2 * stored)
      << logged << " WAL bytes for " << stored << " serialized bytes";
}

// Past the u16 name length a class is never registered, so nothing of it
// reaches a record.
TEST_F(SessionTest, OverlongClassNameNeverStored) {
  const std::string name(70000, 'R');
  EXPECT_TRUE(db_->types()
                  ->RegisterClass(ClassBuilder(name)
                                      .Attribute("v", ValueType::kInt,
                                                 Value(0))
                                      .Build())
                  .IsInvalidArgument());
  Session s(db_.get());
  ASSERT_TRUE(s.Begin().ok());
  EXPECT_TRUE(s.PersistNew(name, {{"v", Value(1)}}).status().IsNotFound());
  ASSERT_TRUE(s.Commit().ok());
}

/// Register FastReactor under the fixture's Reactor: it adds `speed` and
/// redeclares `output` with another default.
void RegisterFastReactor(Database* db) {
  ASSERT_TRUE(db->types()
                  ->RegisterClass(
                      ClassBuilder("FastReactor", "Reactor")
                          .Attribute("output", ValueType::kInt, Value(10))
                          .Attribute("speed", ValueType::kInt, Value(3))
                          .Build())
                  .ok());
}

void ExpectSameObject(const DbObject& a, const DbObject& b) {
  EXPECT_EQ(a.class_name(), b.class_name());
  EXPECT_EQ(a.attributes(), b.attributes())
      << a.ToString() << " vs " << b.ToString();
}

// PersistNew encodes its record without a DbObject; it stores what
// New + Set + Persist stores.
TEST_F(SessionTest, PersistNewStoresWhatCreateSetPersistStores) {
  RegisterFastReactor(db_.get());
  using Attrs = std::vector<std::pair<std::string, Value>>;
  struct Case {
    std::string cls;
    Attrs attrs;
  };
  const std::vector<Case> cases = {
      {"Reactor", {}},
      {"Reactor", {{"output", Value(5)}}},
      {"FastReactor", {}},
      {"FastReactor", {{"name", Value("F")}, {"speed", Value(7)}}},
      {"FastReactor",
       {{"output", Value(1)}, {"name", Value("G")}, {"output", Value(2)}}},
  };
  Session s(db_.get());
  ASSERT_TRUE(s.Begin().ok());
  for (const Case& c : cases) {
    SCOPED_TRACE(c.cls + " with " + std::to_string(c.attrs.size()));
    auto made = s.PersistNew(c.cls, c.attrs);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    auto obj = s.New(c.cls);
    ASSERT_TRUE(obj.ok());
    for (const auto& [name, value] : c.attrs) obj->Set(name, value);
    auto persisted = s.Persist(&*obj);
    ASSERT_TRUE(persisted.ok());
    auto a = s.Fetch(*made);
    auto b = s.Fetch(*persisted);
    ASSERT_TRUE(a.ok() && b.ok());
    ExpectSameObject(**a, **b);
    // One pair per distinct name, in declared order, base first.
    auto record = db_->storage()->objects()->Read(*made);
    ASSERT_TRUE(record.ok());
    auto view = RecordView::Parse(*record);
    ASSERT_TRUE(view.ok());
    std::vector<std::string> names;
    ASSERT_TRUE(view->ForEach([&names](std::string_view name, Value) {
                      names.emplace_back(name);
                    })
                    .ok());
    const std::vector<std::string> declared =
        c.cls == "Reactor"
            ? std::vector<std::string>{"name", "output"}
            : std::vector<std::string>{"name", "output", "speed"};
    EXPECT_EQ(names, declared);
  }
  auto fast = s.PersistNew("FastReactor", {{"name", Value("D")}});
  ASSERT_TRUE(fast.ok());
  auto defaults = s.Fetch(*fast);
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ((*defaults)->Get("output"), Value(10));  // the subclass default
  EXPECT_EQ((*defaults)->Get("speed"), Value(3));
  ASSERT_TRUE(s.Commit().ok());

  // Queries see both kinds of record alike, subclasses included.
  ASSERT_TRUE(s.Begin().ok());
  QueryPm qpm;
  auto r = qpm.Execute(s, "select name from Reactor where output == 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);
  for (const QueryRow& row : r->rows) EXPECT_EQ(row.values[0], Value("G"));
  auto tens = qpm.Execute(s, "select name from Reactor where output == 10");
  ASSERT_TRUE(tens.ok());
  EXPECT_EQ(tens->rows.size(), 5u);  // 2 + 2 cases, and D
  ASSERT_TRUE(s.Commit().ok());
}

TEST_F(SessionTest, PersistNewStatusesMatchCreateSetPersist) {
  Session s(db_.get());
  // No transaction: the class and attribute checks come first.
  EXPECT_TRUE(s.PersistNew("Nope", {}).status().IsNotFound());
  EXPECT_TRUE(
      s.PersistNew("Reactor", {{"nope", Value(1)}}).status().IsNotFound());
  EXPECT_TRUE(s.PersistNew("Reactor", {{"output", Value(1)}})
                  .status()
                  .IsFailedPrecondition());
  EXPECT_TRUE(s.New("Nope").status().IsNotFound());
  auto obj = s.New("Reactor");
  ASSERT_TRUE(obj.ok());
  EXPECT_TRUE(s.Persist(&*obj).status().IsFailedPrecondition());
  // In a transaction: the same refusals, and nothing is stored.
  ASSERT_TRUE(s.Begin().ok());
  EXPECT_TRUE(s.PersistNew("Nope", {}).status().IsNotFound());
  EXPECT_TRUE(
      s.PersistNew("Reactor", {{"output", Value(1)}, {"nope", Value(1)}})
          .status()
          .IsNotFound());
  EXPECT_TRUE(s.Extent("Reactor")->empty());
  ASSERT_TRUE(s.PersistNew("Reactor", {{"output", Value(1)}}).ok());
  EXPECT_EQ(s.Extent("Reactor")->size(), 1u);
  ASSERT_TRUE(s.Commit().ok());
}

TEST_F(SessionTest, NestedSessionTransactions) {
  Session s(db_.get());
  ASSERT_TRUE(s.Begin().ok());
  auto oid = s.PersistNew("Reactor", {{"output", Value(1)}});
  ASSERT_TRUE(s.Begin().ok());  // nested
  EXPECT_EQ(s.txn_depth(), 2u);
  ASSERT_TRUE(s.SetAttr(*oid, "output", Value(2)).ok());
  ASSERT_TRUE(s.Abort().ok());  // nested abort
  EXPECT_EQ(*s.GetAttr(*oid, "output"), Value(1));
  ASSERT_TRUE(s.Commit().ok());
}

TEST_F(SessionTest, InTxnHelperCommitsAndAborts) {
  Session s(db_.get());
  Oid oid;
  ASSERT_TRUE(s.InTxn([&](Session& in) -> Status {
                  auto r = in.PersistNew("Reactor", {{"output", Value(7)}});
                  if (!r.ok()) return r.status();
                  oid = *r;
                  return Status::OK();
                }).ok());
  Status failed = s.InTxn([&](Session& in) -> Status {
    REACH_RETURN_IF_ERROR(in.SetAttr(oid, "output", Value(8)));
    return Status::Internal("boom");
  });
  EXPECT_TRUE(failed.IsInternal());
  ASSERT_TRUE(s.Begin().ok());
  EXPECT_EQ(*s.GetAttr(oid, "output"), Value(7));
  ASSERT_TRUE(s.Commit().ok());
}

TEST_F(SessionTest, ChangePmTracksTxnChanges) {
  Session s(db_.get());
  ASSERT_TRUE(s.Begin().ok());
  auto oid = s.PersistNew("Reactor", {});
  EXPECT_EQ(db_->change()->ChangedObjects(s.current_txn()).size(), 1u);
  ASSERT_TRUE(s.SetAttr(*oid, "output", Value(3)).ok());
  EXPECT_EQ(db_->change()->ChangedObjects(s.current_txn()).size(), 1u);
  TxnId txn = s.current_txn();
  ASSERT_TRUE(s.Commit().ok());
  EXPECT_TRUE(db_->change()->ChangedObjects(txn).empty());
}

TEST_F(SessionTest, IndexMaintainedThroughEvents) {
  ASSERT_TRUE(db_->types()
                  ->RegisterClass(ClassBuilder("Breaker", "Reactor").Build())
                  .ok());
  Session s(db_.get());
  ASSERT_TRUE(s.Begin().ok());
  auto a = s.PersistNew("Reactor", {{"output", Value(10)}});
  auto b = s.PersistNew("Breaker", {{"output", Value(10)}});
  auto c = s.PersistNew("Reactor", {{"output", Value(20)}});
  ASSERT_TRUE(
      db_->indexing()->CreateIndex(s.current_txn(), "Reactor", "output")
          .ok());
  // Subclasses covered at build time.
  auto hits = db_->indexing()->Lookup("Reactor", "output", Value(10));
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 2u);

  // Maintenance through persist / state-change / delete events.
  auto d = s.PersistNew("Reactor", {{"output", Value(10)}});
  EXPECT_EQ(db_->indexing()->Lookup("Reactor", "output", Value(10))->size(),
            3u);
  ASSERT_TRUE(s.SetAttr(*a, "output", Value(99)).ok());
  EXPECT_EQ(db_->indexing()->Lookup("Reactor", "output", Value(10))->size(),
            2u);
  EXPECT_EQ(db_->indexing()->Lookup("Reactor", "output", Value(99))->size(),
            1u);
  ASSERT_TRUE(s.Delete(*d).ok());
  EXPECT_EQ(db_->indexing()->Lookup("Reactor", "output", Value(10))->size(),
            1u);
  ASSERT_TRUE(s.Commit().ok());
  (void)b;
  (void)c;
}

TEST_F(SessionTest, IndexRolledBackOnAbort) {
  Session s(db_.get());
  ASSERT_TRUE(s.Begin().ok());
  auto a = s.PersistNew("Reactor", {{"output", Value(1)}});
  ASSERT_TRUE(
      db_->indexing()->CreateIndex(s.current_txn(), "Reactor", "output")
          .ok());
  ASSERT_TRUE(s.Commit().ok());

  ASSERT_TRUE(s.Begin().ok());
  ASSERT_TRUE(s.SetAttr(*a, "output", Value(2)).ok());
  EXPECT_EQ(db_->indexing()->Lookup("Reactor", "output", Value(2))->size(),
            1u);
  ASSERT_TRUE(s.Abort().ok());
  EXPECT_EQ(db_->indexing()->Lookup("Reactor", "output", Value(2))->size(),
            0u);
  EXPECT_EQ(db_->indexing()->Lookup("Reactor", "output", Value(1))->size(),
            1u);
}

TEST_F(SessionTest, DictionaryBindUnbind) {
  Session s(db_.get());
  ASSERT_TRUE(s.Begin().ok());
  auto oid = s.PersistNew("Reactor", {});
  ASSERT_TRUE(s.Bind("main", *oid).ok());
  EXPECT_TRUE(s.Bind("main", *oid).IsAlreadyExists());
  EXPECT_EQ(*s.Lookup("main"), *oid);
  ASSERT_TRUE(s.Unbind("main").ok());
  EXPECT_TRUE(s.Lookup("main").status().IsNotFound());
  ASSERT_TRUE(s.Commit().ok());
}

TEST_F(SessionTest, PersistenceSurvivesReopen) {
  Oid oid;
  {
    Session s(db_.get());
    ASSERT_TRUE(s.Begin().ok());
    oid = *s.PersistNew("Reactor",
                        {{"name", Value("B")}, {"output", Value(77)}});
    ASSERT_TRUE(s.Bind("B", oid).ok());
    ASSERT_TRUE(s.Commit().ok());
    db_.reset();  // close (no explicit checkpoint: recovery path)
  }
  auto db = Database::Open(dir_.DbPath());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->types()
                  ->RegisterClass(ClassBuilder("Reactor")
                                      .Attribute("name", ValueType::kString,
                                                 Value(""))
                                      .Attribute("output", ValueType::kInt,
                                                 Value(0))
                                      .Build())
                  .ok());
  Session s(db->get());
  ASSERT_TRUE(s.Begin().ok());
  auto obj = s.FetchByName("B");
  ASSERT_TRUE(obj.ok()) << obj.status().ToString();
  EXPECT_EQ((*obj)->Get("output"), Value(77));
  ASSERT_TRUE(s.Commit().ok());
}

}  // namespace
}  // namespace reach
