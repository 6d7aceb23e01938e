// Morsel-parallel query executor (docs/QUERY.md): serial/parallel
// equivalence over randomized extents and morsel sizes, deterministic
// aggregate merges, subclass-extent coverage, fault-injected morsel
// failure, and a stress run racing queries against concurrent mutations
// (run under TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/reach/reach_db.h"
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
  o.parallel = 0;
  return o;
}

QueryOptions Parallel(size_t workers, size_t morsel_pages = 4) {
  QueryOptions o;
  o.parallel = 1;
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

TEST_F(QueryParallelTest, QueryOptionsParseAndDefaults) {
  QueryOptions o =
      QueryOptions::Parse("parallel=off,morsel_pages=2,workers=3").value();
  EXPECT_EQ(o.parallel, 0);
  EXPECT_EQ(o.morsel_pages, 2u);
  EXPECT_EQ(o.workers, 3u);
  EXPECT_FALSE(o.ResolvedParallel());
  EXPECT_EQ(o.ResolvedMorselPages(), 2u);
  EXPECT_EQ(o.ResolvedWorkers(), 3u);
  QueryOptions defaults = QueryOptions::Parse(nullptr).value();
  EXPECT_TRUE(defaults.ResolvedParallel());
  EXPECT_EQ(defaults.ResolvedMorselPages(),
            QueryOptions::kDefaultMorselPages);
  EXPECT_GE(defaults.ResolvedWorkers(), 1u);
  QueryOptions on = QueryOptions::Parse("parallel=on").value();
  EXPECT_EQ(on.parallel, 1);
}

// REACH_QUERY rejects what it does not know, like REACH_STORAGE and
// REACH_WAL: the open fails with InvalidArgument naming the entry. The
// variable is set only for the duration of one open.
Status OpenWithQuerySpec(const char* spec) {
  ::setenv("REACH_QUERY", spec, 1);
  TempDir dir;
  Status st = ReachDb::Open(dir.DbPath()).status();
  ::unsetenv("REACH_QUERY");
  return st;
}

TEST(QueryEnvTest, UnknownKeyFailsTheOpen) {
  for (const char* spec : {"bogus=1", "future=x", "parallel=on,bogus=1"}) {
    SCOPED_TRACE(spec);
    Status st = OpenWithQuerySpec(spec);
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_NE(st.message().find("REACH_QUERY: unknown setting"),
              std::string::npos)
        << st.ToString();
  }
  Status st = OpenWithQuerySpec("workers=2,bogus=1");
  EXPECT_NE(st.message().find("'bogus=1'"), std::string::npos)
      << st.ToString();
  // The same spec without the unknown entry opens.
  EXPECT_TRUE(OpenWithQuerySpec("workers=2").ok());
}

TEST(QueryEnvTest, MalformedValueFailsTheOpen) {
  for (const char* spec :
       {"workers=two", "workers=", "morsel_pages=-1", "morsel_pages=4k",
        "parallel=maybe"}) {
    SCOPED_TRACE(spec);
    Status st = OpenWithQuerySpec(spec);
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_NE(st.message().find(spec), std::string::npos) << st.ToString();
  }
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
