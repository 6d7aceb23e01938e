// Morsel-parallel query executor (docs/QUERY.md): serial/parallel
// equivalence over randomized extents and morsel sizes, deterministic
// aggregate merges, subclass-extent coverage, fault-injected morsel
// failure, and a stress run racing queries against concurrent mutations
// (run under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/reach/reach_db.h"
#include "obs/metrics.h"
#include "oodb/database.h"
#include "oodb/session.h"
#include "query/query_pm.h"
#include "test_util.h"
#include "testing/fault_points.h"
#include "testing/fault_registry.h"

namespace reach {
namespace {

using reach::testing::TempDir;

QueryOptions Serial() {
  QueryOptions o;
  o.workers = 1;
  return o;
}

QueryOptions Parallel(size_t workers, size_t morsel_pages = 4) {
  QueryOptions o;
  o.workers = workers;
  o.morsel_pages = morsel_pages;
  return o;
}

class QueryParallelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open(dir_.DbPath());
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    ASSERT_TRUE(db_->types()
                    ->RegisterClass(
                        ClassBuilder("P")
                            .Attribute("k", ValueType::kInt, Value(0))
                            .Attribute("v", ValueType::kInt, Value(0))
                            .Attribute("cat", ValueType::kString, Value(""))
                            .Attribute("pad", ValueType::kString, Value(""))
                            .Build())
                    .ok());
    ASSERT_TRUE(db_->types()
                    ->RegisterClass(
                        ClassBuilder("PSub", "P")
                            .Attribute("extra", ValueType::kInt, Value(0))
                            .Build())
                    .ok());
    session_ = std::make_unique<Session>(db_.get());
    ASSERT_TRUE(session_->Begin().ok());
  }

  /// Persist `n_base` P and `n_sub` PSub objects with seeded pseudo-random
  /// attributes; the pad spreads the extent over many pages.
  void Seed(size_t n_base, size_t n_sub, uint64_t seed = 42) {
    std::mt19937_64 rng(seed);
    const char* cats[] = {"a", "b", "c"};
    for (size_t i = 0; i < n_base + n_sub; ++i) {
      bool sub = i >= n_base;
      std::vector<std::pair<std::string, Value>> attrs = {
          {"k", Value(static_cast<int64_t>(rng() % 1000))},
          {"v", Value(static_cast<int64_t>(rng() % 100))},
          {"cat", Value(cats[rng() % 3])},
          {"pad", Value(std::string(300, 'x'))},
      };
      if (sub) attrs.emplace_back("extra", Value(static_cast<int64_t>(i)));
      ASSERT_TRUE(
          session_->PersistNew(sub ? "PSub" : "P", std::move(attrs)).ok());
    }
  }

  QueryResult Run(const std::string& q, const QueryOptions& options) {
    auto r = qpm_.Execute(*session_, q, options);
    EXPECT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    return r.ok() ? std::move(*r) : QueryResult{};
  }

  static void ExpectSameRows(const QueryResult& a, const QueryResult& b,
                             const std::string& label) {
    ASSERT_EQ(a.rows.size(), b.rows.size()) << label;
    for (size_t i = 0; i < a.rows.size(); ++i) {
      EXPECT_EQ(a.rows[i].oid, b.rows[i].oid) << label << " row " << i;
      ASSERT_EQ(a.rows[i].values.size(), b.rows[i].values.size())
          << label << " row " << i;
      for (size_t j = 0; j < a.rows[i].values.size(); ++j) {
        EXPECT_EQ(a.rows[i].values[j], b.rows[i].values[j])
            << label << " row " << i << " col " << j;
      }
    }
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Session> session_;
  QueryPm qpm_;
};

TEST_F(QueryParallelTest, SerialParallelEquivalenceAcrossMorselSizes) {
  Seed(120, 40);
  const char* queries[] = {
      "select * from P",
      "select k, v from P where k < 500",
      "select k from P where k >= 250 && v != 3 order by k desc limit 17",
      // Residual predicate (arithmetic defeats the fast path).
      "select k from P where k >= 250 && v + 0 >= 10 order by k",
      "select v from P as p where 500 > p.k",  // flipped literal
  };
  for (size_t morsel_pages : {size_t{1}, size_t{4}, size_t{7}}) {
    for (const char* q : queries) {
      QueryResult serial = Run(q, Serial());
      QueryResult parallel = Run(q, Parallel(4, morsel_pages));
      std::string label =
          std::string(q) + " @morsel_pages=" + std::to_string(morsel_pages);
      ExpectSameRows(serial, parallel, label);
      EXPECT_EQ(serial.scanned, parallel.scanned) << label;
      if (parallel.morsels > 1) {
        EXPECT_GT(parallel.workers, 1u) << label;
      }
    }
  }
}

TEST_F(QueryParallelTest, AggregateMergeIsDeterministic) {
  Seed(150, 30);
  const std::string q =
      "select cat, count(*), sum(v), avg(v), min(k), max(k) from P "
      "group by cat";
  QueryResult serial = Run(q, Serial());
  EXPECT_EQ(serial.rows.size(), 3u);
  QueryResult first = Run(q, Parallel(4, 1));
  ExpectSameRows(serial, first, q + " (serial vs parallel)");
  // Integer inputs fold into exactly-representable partial sums, so
  // repeated parallel runs (and any worker split) match byte-for-byte.
  for (int run = 0; run < 3; ++run) {
    QueryResult again = Run(q, Parallel(run + 2, run % 2 ? 4 : 1));
    ExpectSameRows(first, again, q + " rerun");
  }
}

TEST_F(QueryParallelTest, AggregatesOverEmptySelection) {
  Seed(120, 40);
  const std::string q =
      "select count(*), sum(v), avg(v), min(k), max(k) from P where k > 5000";
  QueryResult serial = Run(q, Serial());
  QueryResult parallel = Run(q, Parallel(4, 1));
  EXPECT_GT(parallel.workers, 1u);
  ExpectSameRows(serial, parallel, q);
  ASSERT_EQ(parallel.rows.size(), 1u);
  const auto& v = parallel.rows[0].values;
  ASSERT_EQ(v.size(), 5u);
  EXPECT_EQ(v[0], Value(0));
  for (size_t i = 1; i < v.size(); ++i) {
    EXPECT_TRUE(v[i].is_null()) << "column " << i;
  }
  const std::string grouped =
      "select cat, count(*) from P where k > 5000 group by cat";
  EXPECT_TRUE(Run(grouped, Serial()).rows.empty());
  EXPECT_TRUE(Run(grouped, Parallel(4, 1)).rows.empty());
}

TEST_F(QueryParallelTest, SubclassExtentsAreCovered) {
  Seed(60, 25);
  QueryResult serial = Run("select k from P", Serial());
  QueryResult parallel = Run("select k from P", Parallel(4, 1));
  EXPECT_EQ(serial.rows.size(), 85u);
  ExpectSameRows(serial, parallel, "base+subclass scan");
  QueryResult sub = Run("select extra from PSub where extra >= 0",
                        Parallel(4, 1));
  EXPECT_EQ(sub.rows.size(), 25u);
}

TEST_F(QueryParallelTest, SingleMorselFallsBackToSerial) {
  Seed(8, 0);
  QueryResult r = Run("select k from P", Parallel(4, /*morsel_pages=*/64));
  EXPECT_EQ(r.morsels, 1u);
  EXPECT_EQ(r.workers, 1u);
  EXPECT_EQ(r.rows.size(), 8u);
}

TEST_F(QueryParallelTest, IndexPlansStaySerial) {
  Seed(50, 0);
  ASSERT_TRUE(db_->indexing()
                  ->CreateIndex(session_->current_txn(), "P", "cat")
                  .ok());
  QueryResult indexed =
      Run("select k from P where cat == \"a\"", Parallel(4, 1));
  EXPECT_TRUE(indexed.used_index);
  EXPECT_EQ(indexed.morsels, 0u);
  EXPECT_EQ(indexed.workers, 1u);
  // Same rows as the scan plan, modulo candidate order.
  ASSERT_TRUE(db_->indexing()->DropIndex("P", "cat").ok());
  QueryResult scanned =
      Run("select k from P where cat == \"a\"", Parallel(4, 1));
  EXPECT_FALSE(scanned.used_index);
  auto by_oid = [](const QueryRow& a, const QueryRow& b) {
    return a.oid < b.oid;
  };
  std::vector<QueryRow> a = indexed.rows, b = scanned.rows;
  std::sort(a.begin(), a.end(), by_oid);
  std::sort(b.begin(), b.end(), by_oid);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].oid, b[i].oid);
    EXPECT_EQ(a[i].values, b[i].values);
  }
}

TEST_F(QueryParallelTest, EvaluationErrorsSurfaceFromWorkers) {
  Seed(60, 0);
  for (const QueryOptions& o : {Serial(), Parallel(4, 1)}) {
    auto r = qpm_.Execute(*session_, "select k from P where v / 0 > 1", o);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
  }
}

TEST_F(QueryParallelTest, FaultedMorselFailsWholeQueryWithoutPartialRows) {
  Seed(80, 0);
  auto& reg = FaultRegistry::Instance();
  reg.DisarmAll();
  reg.ArmError(faults::kQueryMorsel, Status::Code::kIoError, /*nth=*/1,
               /*one_shot=*/false);
  for (const QueryOptions& o : {Serial(), Parallel(4, 1)}) {
    auto r = qpm_.Execute(*session_, "select k from P", o);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsIoError()) << r.status().ToString();
  }
  reg.DisarmAll();
  // The failure left no residue: the same query now runs clean.
  QueryResult ok = Run("select k from P", Parallel(4, 1));
  EXPECT_EQ(ok.rows.size(), 80u);
}

TEST_F(QueryParallelTest, CrashFaultRethrowsOnQueryingThread) {
  Seed(80, 0);
  auto& reg = FaultRegistry::Instance();
  reg.DisarmAll();
  reg.ArmCrash(faults::kQueryMorsel, /*nth=*/1);
  EXPECT_THROW((void)qpm_.Execute(*session_, "select k from P",
                                  Parallel(4, 1)),
               FaultInjectedCrash);
  reg.DisarmAll();
  EXPECT_EQ(Run("select k from P", Parallel(4, 1)).rows.size(), 80u);
}

// REACH_METRICS and REACH_FAULTS reject what they do not know: the open
// fails with InvalidArgument naming the entry. The variable is set only for
// the duration of one open.
Status OpenWithSpec(const char* var, const char* spec) {
  ::setenv(var, spec, 1);
  TempDir dir;
  Status st = ReachDb::Open(dir.DbPath()).status();
  ::unsetenv(var);
  return st;
}

TEST(MetricsEnvTest, UnknownOrMalformedEntryFailsTheOpen) {
  for (const char* spec : {"bogus", "on,bogus", "dump", "on=1", "level=2"}) {
    SCOPED_TRACE(spec);
    Status st = OpenWithSpec("REACH_METRICS", spec);
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_NE(st.message().find("REACH_METRICS: unknown setting"),
              std::string::npos)
        << st.ToString();
  }
  Status st = OpenWithSpec("REACH_METRICS", "off;dump=");
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("malformed value in 'dump='"),
            std::string::npos)
      << st.ToString();
}

TEST(MetricsEnvTest, SharedGrammarParses) {
  auto none = obs::MetricsSpec::Parse(nullptr);
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none->enabled);
  EXPECT_TRUE(none->dump_path.empty());
  EXPECT_TRUE(obs::MetricsSpec::Parse("on")->enabled);
  EXPECT_TRUE(obs::MetricsSpec::Parse("1")->enabled);
  EXPECT_FALSE(obs::MetricsSpec::Parse("on;off")->enabled);
  auto dump = obs::MetricsSpec::Parse(",dump=/tmp/m.json;");
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  EXPECT_TRUE(dump->enabled);
  EXPECT_EQ(dump->dump_path, "/tmp/m.json");
  // A valid spec opens (nothing is dumped: the registry read the
  // environment once, at process start).
  EXPECT_TRUE(OpenWithSpec("REACH_METRICS", "off").ok());
}

TEST(FaultsEnvTest, UnknownOrMalformedEntryFailsTheOpen) {
  const std::string point = faults::kWalAppend;
  for (const std::string& spec :
       {std::string("wal.apend=error"), point, point + "=explode",
        point + "=error:nosuchcode", point + "=error@x", point + "=error@0",
        point + "=error:io:busy", point + "=crash:io", point + "=perror",
        point + "=perror:1.5", point + "=perror:io:-0.1",
        point + "=perror:io:0.5@2",
        point + "=error@3;" + point + "=perror:x"}) {
    SCOPED_TRACE(spec);
    Status st = OpenWithSpec("REACH_FAULTS", spec.c_str());
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_NE(st.message().find("REACH_FAULTS: "), std::string::npos)
        << st.ToString();
    EXPECT_TRUE(FaultRegistry::ValidateSpec(spec.c_str()).IsInvalidArgument());
  }
  Status st = OpenWithSpec("REACH_FAULTS", "wal.apend=error@3");
  EXPECT_NE(st.message().find("unknown fault point in 'wal.apend=error@3'"),
            std::string::npos)
      << st.ToString();
}

TEST(FaultsEnvTest, SharedGrammarParses) {
  const std::string point = faults::kWalAppend;
  EXPECT_TRUE(FaultRegistry::ValidateSpec(nullptr).ok());
  for (const std::string& spec :
       {std::string(""), point + "=error", point + "=error:busy@3",
        point + "=crash@2", point + "=perror:1", point + "=perror:io:0.25",
        ";" + point + "=error," + std::string(faults::kWalFlushFsync) +
            "=perror:corruption:0;"}) {
    SCOPED_TRACE(spec);
    EXPECT_TRUE(FaultRegistry::ValidateSpec(spec.c_str()).ok());
  }
  // A valid spec opens (nothing is armed: the registry read the
  // environment once, at process start).
  EXPECT_TRUE(OpenWithSpec("REACH_FAULTS", (point + "=error@1000").c_str())
                  .ok());
  EXPECT_FALSE(FaultRegistry::enabled());
}

// REACH_FAULTS_SEED is a whole unsigned number: a seed that strtoull would
// read only in part (or not at all) refuses the open instead of running a
// fault schedule that cannot be reproduced from what was typed.
TEST(FaultsEnvTest, MalformedSeedFailsTheOpen) {
  for (const char* seed :
       {"12x", "abc", "", "-1", "+7", "0x", "1.5", "18446744073709551616"}) {
    SCOPED_TRACE(seed);
    Status st = OpenWithSpec("REACH_FAULTS_SEED", seed);
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_NE(st.message().find("REACH_FAULTS_SEED: malformed value"),
              std::string::npos)
        << st.ToString();
    EXPECT_TRUE(FaultRegistry::ValidateSeed(seed).IsInvalidArgument());
  }
  EXPECT_TRUE(FaultRegistry::ValidateSeed(nullptr).ok());
  for (const char* seed : {"0", "12", "0x2a", "18446744073709551615"}) {
    SCOPED_TRACE(seed);
    EXPECT_TRUE(FaultRegistry::ValidateSeed(seed).ok());
    EXPECT_TRUE(OpenWithSpec("REACH_FAULTS_SEED", seed).ok());
  }
}

// Scans read stored records in place; decoding each object must agree.
// The extent holds forwarded bodies (updates that outgrew their page),
// segmented bodies (larger than a page) and subclass objects carrying an
// attribute their base class lacks (NotFound: no match). Rows and
// aggregates of serial and parallel scans are compared against a
// reference computed from Fetch'ed objects.
TEST_F(QueryParallelTest, InPlaceScanMatchesDecodedObjects) {
  Seed(120, 40);
  auto extent = session_->Extent("P");
  ASSERT_TRUE(extent.ok());
  std::vector<Oid> oids = *extent;
  std::sort(oids.begin(), oids.end());  // scan order
  for (size_t i = 0; i < oids.size(); i += 7) {
    ASSERT_TRUE(
        session_->SetAttr(oids[i], "pad", Value(std::string(2500, 'f'))).ok());
  }
  for (size_t i = 3; i < oids.size(); i += 11) {
    ASSERT_TRUE(
        session_->SetAttr(oids[i], "pad", Value(std::string(9000, 's'))).ok());
  }
  std::vector<std::shared_ptr<DbObject>> objs;
  for (const Oid& oid : oids) {
    auto obj = session_->Fetch(oid);
    ASSERT_TRUE(obj.ok()) << obj.status().ToString();
    objs.push_back(*obj);
  }

  struct RowCase {
    std::string query;
    std::function<bool(const DbObject&)> keep;
    std::vector<std::string> columns;
  };
  const RowCase row_cases[] = {
      {"select k, v from P where k < 500",
       [](const DbObject& o) { return o.Get("k").as_int() < 500; },
       {"k", "v"}},
      {"select k, pad from P where v < 30",
       [](const DbObject& o) { return o.Get("v").as_int() < 30; },
       {"k", "pad"}},
      {"select k from P where extra >= 0",
       [](const DbObject& o) { return o.Has("extra"); },
       {"k"}},
      // Residual predicates: arithmetic defeats the fast path.
      {"select k, cat from P where k >= 100 && v + 0 >= 10",
       [](const DbObject& o) {
         return o.Get("k").as_int() >= 100 && o.Get("v").as_int() >= 10;
       },
       {"k", "cat"}},
      {"select v from P where extra * 2 > 300",
       [](const DbObject& o) {
         return o.Has("extra") && o.Get("extra").as_int() * 2 > 300;
       },
       {"v"}},
  };
  for (const RowCase& c : row_cases) {
    QueryResult want;
    for (size_t i = 0; i < objs.size(); ++i) {
      if (!c.keep(*objs[i])) continue;
      QueryRow row;
      row.oid = oids[i];
      for (const std::string& col : c.columns) {
        row.values.push_back(objs[i]->Get(col));
      }
      want.rows.push_back(std::move(row));
    }
    ASSERT_FALSE(want.rows.empty()) << c.query;
    ExpectSameRows(Run(c.query, Serial()), want, c.query + " serial");
    ExpectSameRows(Run(c.query, Parallel(4, 2)), want, c.query + " parallel");
  }

  // Aggregates by category, folded from the decoded objects.
  std::map<std::string, std::vector<const DbObject*>> by_cat;
  for (const auto& obj : objs) {
    if (obj->Get("k").as_int() < 700) {
      by_cat[obj->Get("cat").as_string()].push_back(obj.get());
    }
  }
  QueryResult want;
  for (const auto& [cat, members] : by_cat) {
    int64_t sum = 0, lo = INT64_MAX, hi = INT64_MIN;
    for (const DbObject* o : members) {
      sum += o->Get("v").as_int();
      lo = std::min(lo, o->Get("k").as_int());
      hi = std::max(hi, o->Get("k").as_int());
    }
    QueryRow row;
    row.values = {Value(cat), Value(static_cast<int64_t>(members.size())),
                  Value(static_cast<double>(sum)), Value(lo), Value(hi)};
    want.rows.push_back(std::move(row));
  }
  const std::string q =
      "select cat, count(*), sum(v), min(k), max(k) from P where k < 700 "
      "group by cat";
  ExpectSameRows(Run(q, Serial()), want, q + " serial");
  ExpectSameRows(Run(q, Parallel(4, 2)), want, q + " parallel");
}

// A scan beside a writer whose updates outgrow their home pages (the body
// moves away behind a forward stub) and then grow and shrink there: every
// committed scan sees each object exactly once, with an untorn value. Run
// repeatedly under TSan in CI.
TEST_F(QueryParallelTest, ScanBesideRelocatingWriter) {
  Seed(150, 0);
  auto extent = session_->Extent("P");
  ASSERT_TRUE(extent.ok());
  const std::vector<Oid> oids = *extent;
  int64_t k_sum = 0;
  for (const Oid& oid : oids) k_sum += session_->GetAttr(oid, "k")->as_int();
  ASSERT_TRUE(session_->Commit().ok());

  const std::string small(300, 'x');
  const std::string large(3000, 'L');
  std::atomic<bool> stop{false};
  std::atomic<int> scans{0};
  std::atomic<int> writes{0};
  std::atomic<int> errors{0};
  std::mutex err_mu;
  std::string first_error;
  auto fail = [&](const std::string& what) {
    std::lock_guard<std::mutex> lock(err_mu);
    if (errors.fetch_add(1) == 0) first_error = what;
  };

  std::thread writer([&] {
    std::mt19937_64 rng(7);
    Session s(db_.get());
    while (!stop.load()) {
      const Oid& oid = oids[rng() % oids.size()];
      const std::string& pad = (rng() % 2 == 0) ? large : small;
      Status st = s.InTxn([&](Session& txn) {
        return txn.SetAttr(oid, "pad", Value(pad));
      });
      if (st.ok()) {
        writes.fetch_add(1);
      } else if (!st.IsAborted()) {
        fail("write: " + st.ToString());
      }
    }
  });
  std::thread scanner([&] {
    QueryPm qpm;
    Session s(db_.get());
    for (int round = 0; round < 60; ++round) {
      Result<QueryResult> rows = Status::Internal("not run");
      Result<QueryResult> agg = Status::Internal("not run");
      Status st = s.InTxn([&](Session& txn) -> Status {
        rows = qpm.Execute(txn, "select k, pad from P", Parallel(4, 1));
        if (!rows.ok()) return rows.status();
        agg = qpm.Execute(txn, "select count(*), sum(k) from P where k >= 0",
                          Parallel(4, 1));
        return agg.status();
      });
      if (!st.ok()) {
        if (!st.IsAborted()) fail("scan: " + st.ToString());
        continue;
      }
      scans.fetch_add(1);
      std::set<Oid> seen;
      for (const QueryRow& row : rows->rows) {
        seen.insert(row.oid);
        const Value& pad = row.values.at(1);
        if (pad != Value(small) && pad != Value(large)) {
          fail("torn pad on " + row.oid.ToString());
        }
      }
      if (seen.size() != oids.size() || rows->rows.size() != oids.size()) {
        fail("scan saw " + std::to_string(rows->rows.size()) + " rows, " +
             std::to_string(seen.size()) + " distinct");
      }
      const QueryRow& totals = agg->rows.at(0);
      if (totals.values.at(0) != Value(static_cast<int64_t>(oids.size())) ||
          totals.values.at(1) != Value(static_cast<double>(k_sum))) {
        fail("aggregate saw count " + totals.values.at(0).ToString() +
             " sum " + totals.values.at(1).ToString());
      }
    }
    stop.store(true);
  });
  scanner.join();
  writer.join();
  EXPECT_EQ(errors.load(), 0) << first_error;
  EXPECT_GT(scans.load(), 0);
  EXPECT_GT(writes.load(), 0);
}

// Parallel queries racing Insert/Update/Delete from other sessions: every
// statement may succeed or fail with a transactional status (deadlocks
// resolve as Aborted), but nothing may crash or race (TSan).
TEST_F(QueryParallelTest, StressQueriesAgainstConcurrentMutations) {
  Seed(100, 0);
  ASSERT_TRUE(session_->Commit().ok());  // release the seeding S/X locks
  std::atomic<bool> stop{false};
  std::atomic<int> query_ok{0};

  auto tolerable = [](const Status& st) {
    return st.ok() || st.IsAborted() || st.IsTimedOut() || st.IsNotFound();
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      QueryPm qpm;
      Session s(db_.get());
      for (int i = 0; i < 25 && !stop.load(); ++i) {
        Status st = s.InTxn([&](Session& txn) -> Status {
          auto r = qpm.Execute(txn, "select k, v from P where k < 500",
                               Parallel(4, 1));
          if (!r.ok()) return r.status();
          query_ok.fetch_add(1);
          return Status::OK();
        });
        ASSERT_TRUE(tolerable(st)) << st.ToString();
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(1000 + t);
      Session s(db_.get());
      std::vector<Oid> mine;
      for (int i = 0; i < 60 && !stop.load(); ++i) {
        Status st = s.InTxn([&](Session& txn) -> Status {
          switch (rng() % 3) {
            case 0: {
              auto oid = txn.PersistNew(
                  "P", {{"k", Value(static_cast<int64_t>(rng() % 1000))},
                        {"pad", Value(std::string(300, 'y'))}});
              if (oid.ok()) mine.push_back(*oid);
              return oid.status();
            }
            case 1: {
              if (mine.empty()) return Status::OK();
              return txn.SetAttr(mine[rng() % mine.size()], "v",
                                 Value(static_cast<int64_t>(rng() % 100)));
            }
            default: {
              if (mine.empty()) return Status::OK();
              size_t at = rng() % mine.size();
              Status del = txn.Delete(mine[at]);
              if (del.ok()) mine.erase(mine.begin() + at);
              return del;
            }
          }
        });
        ASSERT_TRUE(tolerable(st)) << st.ToString();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  stop.store(true);
  EXPECT_GT(query_ok.load(), 0);
}

}  // namespace
}  // namespace reach
