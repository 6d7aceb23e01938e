// Concurrency: deadlock detection and retry at the session level, lock
// isolation between sessions, parallel detached rules, and compositor
// thread-safety.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/reach/reach_db.h"
#include "test_util.h"

namespace reach {
namespace {

using reach::testing::TempDir;

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = ReachDb::Open(dir_.DbPath());
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    ASSERT_TRUE(db_->RegisterClass(
                       ClassBuilder("Cell")
                           .Attribute("v", ValueType::kInt, Value(0)))
                    .ok());
  }
  TempDir dir_;
  std::unique_ptr<ReachDb> db_;
};

TEST_F(ConcurrencyTest, WriteLocksIsolateUncommittedState) {
  Session a(db_->database()), b(db_->database());
  ASSERT_TRUE(a.Begin().ok());
  auto oid = a.PersistNew("Cell", {{"v", Value(1)}});
  ASSERT_TRUE(a.Commit().ok());

  ASSERT_TRUE(a.Begin().ok());
  ASSERT_TRUE(a.SetAttr(*oid, "v", Value(2)).ok());

  // Reader blocks on the X lock until the writer commits.
  std::atomic<int64_t> seen{-1};
  std::thread reader([&] {
    ASSERT_TRUE(b.Begin().ok());
    auto v = b.GetAttr(*oid, "v");
    ASSERT_TRUE(v.ok());
    seen = v->as_int();
    ASSERT_TRUE(b.Commit().ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(seen.load(), -1);  // still blocked
  ASSERT_TRUE(a.Commit().ok());
  reader.join();
  EXPECT_EQ(seen.load(), 2);  // only the committed value was visible
}

TEST_F(ConcurrencyTest, DeadlockVictimCanRetry) {
  Session setup(db_->database());
  ASSERT_TRUE(setup.Begin().ok());
  auto x = setup.PersistNew("Cell", {});
  auto y = setup.PersistNew("Cell", {});
  ASSERT_TRUE(setup.Commit().ok());

  std::atomic<int> successes{0}, aborted{0};
  auto worker = [&](const Oid& first, const Oid& second) {
    Session s(db_->database());
    for (int attempt = 0; attempt < 20; ++attempt) {
      if (!s.Begin().ok()) continue;
      Status st1 = s.SetAttr(first, "v", Value(attempt));
      if (st1.ok()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        Status st2 = s.SetAttr(second, "v", Value(attempt));
        if (st2.ok() && s.Commit().ok()) {
          successes++;
          continue;
        }
        if (st2.IsAborted()) aborted++;
      } else if (st1.IsAborted()) {
        aborted++;
      }
      (void)s.AbortAll();
    }
  };
  std::thread t1(worker, *x, *y);
  std::thread t2(worker, *y, *x);  // opposite order: deadlock-prone
  t1.join();
  t2.join();
  // Both workers finish; deadlocks (if any occurred) were broken by the
  // wait-for-graph detector, not by hanging.
  EXPECT_GT(successes.load(), 0);
  Session check(db_->database());
  ASSERT_TRUE(check.Begin().ok());
  EXPECT_TRUE(check.GetAttr(*x, "v").ok());
  ASSERT_TRUE(check.Commit().ok());
}

TEST_F(ConcurrencyTest, DetachedRulesFromManyTxnsAllRun) {
  auto ev = db_->events()->DefineFlowEvent("cell_persist",
                                           SentryKind::kPersist, "Cell");
  std::atomic<int> runs{0};
  RuleSpec spec;
  spec.name = "count";
  spec.event = *ev;
  spec.coupling = CouplingMode::kDetached;
  spec.action = [&](Session&, const EventOccurrence&) -> Status {
    runs++;
    return Status::OK();
  };
  ASSERT_TRUE(db_->rules()->DefineRule(std::move(spec)).ok());

  constexpr int kThreads = 4, kTxns = 20;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      Session s(db_->database());
      for (int i = 0; i < kTxns; ++i) {
        ASSERT_TRUE(s.Begin().ok());
        ASSERT_TRUE(s.PersistNew("Cell", {}).ok());
        ASSERT_TRUE(s.Commit().ok());
      }
    });
  }
  for (auto& w : workers) w.join();
  db_->Drain();
  EXPECT_EQ(runs.load(), kThreads * kTxns);
}

TEST_F(ConcurrencyTest, CompositorSafeUnderConcurrentFeeds) {
  EventRegistry registry;
  EventTypeId a = *registry.RegisterMethodEvent("A", "C", "a");
  EventTypeId b = *registry.RegisterMethodEvent("B", "C", "b");
  auto id = registry.RegisterComposite(
      "AB", EventExpr::Seq(EventExpr::Prim(a), EventExpr::Prim(b)),
      CompositeScope::kSingleTxn, ConsumptionPolicy::kChronicle);
  ASSERT_TRUE(id.ok());
  Compositor compositor(registry.Find(*id));

  constexpr int kThreads = 4, kPairs = 2000;
  std::atomic<uint64_t> seq{0};
  std::atomic<uint64_t> completions{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<EventOccurrencePtr> out;
      for (int i = 0; i < kPairs; ++i) {
        for (EventTypeId type : {a, b}) {
          auto occ = std::make_shared<EventOccurrence>();
          occ->type = type;
          occ->sequence = seq.fetch_add(1) + 1;
          occ->timestamp = static_cast<Timestamp>(occ->sequence);
          occ->txn = static_cast<TxnId>(t + 1);  // one txn per thread
          compositor.Feed(occ, &out);
        }
        completions.fetch_add(out.size());
        out.clear();
      }
    });
  }
  for (auto& w : workers) w.join();
  // Each thread's txn-scoped instance pairs its own a;b stream; some pairs
  // may interleave as b;a within a thread's loop, but every a eventually
  // has a later b, so completions per thread = kPairs (chronicle).
  EXPECT_EQ(completions.load(),
            static_cast<uint64_t>(kThreads) * kPairs);
}

TEST_F(ConcurrencyTest, ExtentConsistentUnderConcurrentPersists) {
  constexpr int kThreads = 4, kObjects = 50;
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      Session s(db_->database());
      for (int i = 0; i < kObjects; ++i) {
        if (!s.Begin().ok() || !s.PersistNew("Cell", {}).ok() ||
            !s.Commit().ok()) {
          failures++;
          (void)s.AbortAll();
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  Session check(db_->database());
  ASSERT_TRUE(check.Begin().ok());
  auto extent = check.Extent("Cell");
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ(extent->size(), static_cast<size_t>(kThreads * kObjects));
  ASSERT_TRUE(check.Commit().ok());
}

// Phantom protection on class extents: inserters and deleters hold the
// class's extent anchor X from before the store insert, scans hold it S
// (docs/STORAGE.md "Page owners"). A scan never sees another transaction's
// uncommitted object and never misses a committed one.
TEST_F(ConcurrencyTest, ExtentScansSeeExactlyCommittedObjects) {
  const std::string classes[] = {"Left", "Right"};
  for (const std::string& cls : classes) {
    ASSERT_TRUE(db_->RegisterClass(
                       ClassBuilder(cls).Attribute("doomed", ValueType::kInt,
                                                   Value(0)))
                    .ok());
  }
  constexpr int kInserters = 4, kTxns = 30, kPerTxn = 3, kDeletes = 15;
  std::mutex mu;
  std::set<Oid> live[2];   // committed and not being deleted, per class
  std::set<Oid> deleting;  // handed to the deleter (Left only)
  std::atomic<int> errors{0};
  std::string first_error;
  auto fail = [&](const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    if (errors++ == 0) first_error = what;
  };
  {
    Session s(db_->database());
    ASSERT_TRUE(s.Begin().ok());
    for (int i = 0; i < 2 * kDeletes; ++i) {
      live[0].insert(*s.PersistNew("Left", {}));
    }
    live[1].insert(*s.PersistNew("Right", {}));
    ASSERT_TRUE(s.Commit().ok());
  }

  std::atomic<int> inserting{kInserters};
  std::vector<std::thread> threads;
  for (int t = 0; t < kInserters; ++t) {
    threads.emplace_back([&, t] {
      const int c = t % 2;
      Session s(db_->database());
      for (int n = 0; n < kTxns; ++n) {
        const bool doomed = n % 2 == 1;
        std::vector<Oid> mine;
        Status st = s.Begin();
        for (int k = 0; st.ok() && k < kPerTxn; ++k) {
          auto oid = s.PersistNew(classes[c], {{"doomed", Value(doomed ? 1 : 0)}});
          st = oid.status();
          if (oid.ok()) mine.push_back(*oid);
        }
        if (st.ok() && !doomed) {
          st = s.Commit();
          if (st.ok()) {
            std::lock_guard<std::mutex> lock(mu);
            live[c].insert(mine.begin(), mine.end());
          }
        } else {
          (void)s.AbortAll();
        }
        if (!st.ok() && !st.IsAborted()) fail("insert: " + st.ToString());
      }
      inserting--;
    });
  }
  threads.emplace_back([&] {
    Session s(db_->database());
    for (int n = 0; n < kDeletes; ++n) {
      Oid victim;
      {
        std::lock_guard<std::mutex> lock(mu);
        victim = *live[0].begin();
        live[0].erase(victim);
        deleting.insert(victim);
      }
      Status st = s.Begin();
      if (st.ok()) st = s.Delete(victim);
      if (st.ok()) st = s.Commit();
      if (!st.ok()) {
        (void)s.AbortAll();
        std::lock_guard<std::mutex> lock(mu);
        deleting.erase(victim);
        live[0].insert(victim);
        if (!st.IsAborted()) fail("delete: " + st.ToString());
      }
    }
  });
  threads.emplace_back([&] {
    Session s(db_->database());
    for (int scans = 0; inserting.load() > 0 || scans < 4; ++scans) {
      for (int c = 0; c < 2; ++c) {
        std::set<Oid> expect;
        {
          std::lock_guard<std::mutex> lock(mu);
          expect = live[c];
        }
        Status st = s.Begin();
        auto extent = s.Extent(classes[c], /*include_subclasses=*/false);
        std::vector<std::shared_ptr<DbObject>> objs;
        if (st.ok()) st = extent.status();
        for (size_t i = 0; st.ok() && i < extent->size(); ++i) {
          auto obj = s.Fetch((*extent)[i]);
          st = obj.status();
          if (st.ok()) objs.push_back(std::move(*obj));
        }
        if (st.ok()) st = s.Commit();
        if (!st.ok()) {
          (void)s.AbortAll();
          if (!st.IsAborted()) fail("scan: " + st.ToString());
          continue;
        }
        for (const auto& obj : objs) {
          if (obj->Get("doomed") != Value(0)) {
            fail("scan saw an uncommitted object " + obj->oid().ToString());
          }
        }
        std::set<Oid> seen(extent->begin(), extent->end());
        std::lock_guard<std::mutex> lock(mu);
        for (const Oid& oid : expect) {
          if (!seen.contains(oid) && !deleting.contains(oid)) {
            fail("scan missed committed object " + oid.ToString());
          }
        }
      }
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0) << first_error;
}

// Scans lock no object: the class extent's S is their whole guard, and
// every update holds the extent IX until its transaction ends. A scan
// therefore waits for an uncommitted SetAttr — also one a rule
// subtransaction made and passed to its parent — and sees only what that
// transaction's outcome leaves.
TEST_F(ConcurrencyTest, ScanNeverSeesUncommittedSetAttr) {
  ASSERT_TRUE(db_->RegisterClass(
                     ClassBuilder("Gauge").Method(
                         "poke",
                         [](Session&, DbObject&,
                            const std::vector<Value>&) -> Result<Value> {
                           return Value();
                         }))
                  .ok());
  std::vector<Oid> cells;
  Oid gauge;
  {
    Session s(db_->database());
    ASSERT_TRUE(s.Begin().ok());
    for (int i = 0; i < 40; ++i) {
      cells.push_back(*s.PersistNew("Cell", {{"v", Value(1)}}));
    }
    gauge = *s.PersistNew("Gauge", {});
    ASSERT_TRUE(s.Commit().ok());
  }
  Oid rule_target;  // set before each poke
  auto ev = db_->events()->DefineMethodEvent("poke_ev", "Gauge", "poke");
  ASSERT_TRUE(ev.ok());
  RuleSpec spec;
  spec.name = "mark";
  spec.event = *ev;
  spec.coupling = CouplingMode::kImmediate;
  spec.action = [&rule_target](Session& s, const EventOccurrence&) {
    return s.SetAttr(rule_target, "v", Value(100));
  };
  ASSERT_TRUE(db_->rules()->DefineRule(std::move(spec)).ok());

  size_t marked = 0;
  for (int round = 0; round < 8; ++round) {
    const bool via_rule = round % 4 >= 2;
    const bool commit = round % 2 == 1;
    const Oid target = cells[round * 3];
    Session writer(db_->database());
    ASSERT_TRUE(writer.Begin().ok());
    if (via_rule) {
      rule_target = target;
      ASSERT_TRUE(writer.Invoke(gauge, "poke").ok());
    } else {
      ASSERT_TRUE(writer.SetAttr(target, "v", Value(100)).ok());
    }
    std::atomic<bool> done{false};
    Result<QueryResult> rows = Status::Internal("not run");
    std::thread scanner([&] {
      Session s(db_->database());
      Status st = s.InTxn([&](Session& txn) -> Status {
        rows = db_->Query(txn, "select v from Cell where v == 100");
        return rows.status();
      });
      EXPECT_TRUE(st.ok()) << st.ToString();
      done = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(done.load()) << "round " << round
                              << ": scan ran beside an uncommitted update";
    if (commit) {
      ASSERT_TRUE(writer.Commit().ok());
      ++marked;
    } else {
      ASSERT_TRUE(writer.Abort().ok());
    }
    scanner.join();
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->rows.size(), marked) << "round " << round;
  }
}

// FIFO grants: with three sessions scanning the class back to back, some
// scan holds the extent S at almost every instant. An updater's IX queues,
// the scans arriving after it queue behind it, so while one update waits
// only the scans already running finish — not the hundreds that finish
// while an updater waits for a gap between scans.
TEST_F(ConcurrencyTest, ClassUpdaterCommitsBesideBackToBackScans) {
  constexpr int kScanners = 3, kUpdates = 10;
  std::vector<Oid> cells;
  {
    Session s(db_->database());
    ASSERT_TRUE(s.Begin().ok());
    for (int i = 0; i < 1000; ++i) {
      cells.push_back(*s.PersistNew("Cell", {{"v", Value(1)}}));
    }
    ASSERT_TRUE(s.Commit().ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> scans{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> scanners;
  for (int t = 0; t < kScanners; ++t) {
    scanners.emplace_back([&] {
      Session s(db_->database());
      while (!stop.load()) {
        Status st = s.InTxn([&](Session& txn) {
          return db_->Query(txn, "select count(*) from Cell where v >= 0")
              .status();
        });
        if (st.ok()) {
          scans.fetch_add(1);
        } else if (!st.IsAborted()) {
          errors.fetch_add(1);
        }
      }
    });
  }
  while (scans.load() < 4) std::this_thread::yield();

  std::atomic<int> updated{0};
  std::vector<int> scans_per_update;  // scans finished while one committed
  std::thread updater([&] {
    Session s(db_->database());
    for (int i = 0; i < kUpdates; ++i) {
      const int before = scans.load();
      Status st = s.InTxn([&](Session& txn) {
        return txn.SetAttr(cells[i], "v", Value(2));
      });
      scans_per_update.push_back(scans.load() - before);
      EXPECT_TRUE(st.ok()) << st.ToString();
      updated.fetch_add(1);
    }
  });
  // A starved updater never finishes while the scans run, so stop them
  // after a generous bound either way.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (updated.load() < kUpdates &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const int in_time = updated.load();
  stop.store(true);
  updater.join();
  for (auto& t : scanners) t.join();
  ASSERT_EQ(in_time, kUpdates);
  EXPECT_EQ(errors.load(), 0);
  // Each running scan finishes once, and one that had just released its S
  // when the update began is counted too; the median forgives an updater
  // the scheduler set aside before it queued.
  std::sort(scans_per_update.begin(), scans_per_update.end());
  EXPECT_LE(scans_per_update[kUpdates / 2], 2 * kScanners)
      << "scans per update, lowest first: "
      << ::testing::PrintToString(scans_per_update);
}

}  // namespace
}  // namespace reach
