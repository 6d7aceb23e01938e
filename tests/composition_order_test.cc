// Order-exact composition on the lanes (docs/EVENTS.md "Composition
// lanes"): every occurrence of one transaction reaches its single-txn
// compositors on one FIFO lane, so order-sensitive composites (Seq, Not)
// detect exactly what inline composition detects, at any lane count.
// Property tests: identical pseudo-random workloads run inline, on one lane
// and on four lanes, with one producer and with four concurrent producers
// owning disjoint transactions, must produce exactly the same composite
// detections under all four SNOOP consumption policies; rule executions
// across every coupling mode must not change; and a multi-threaded stress
// run (the TSan CI target) must produce exact per-transaction completion
// counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/events/event_manager.h"
#include "core/reach/reach_db.h"
#include "test_util.h"

namespace reach {
namespace {

using reach::testing::TempDir;

// Deterministic 64-bit LCG so every configuration replays the exact same
// workload (no std::random_device).
struct Lcg {
  uint64_t state;
  explicit Lcg(uint64_t seed) : state(seed) {}
  uint64_t Next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 17;
  }
};

// Inline composition is the reference; then one lane and four lanes.
struct Config {
  bool async;
  size_t lanes;
};
constexpr Config kConfigs[] = {{false, 1}, {true, 1}, {true, 4}};

constexpr ConsumptionPolicy kPolicies[] = {
    ConsumptionPolicy::kRecent, ConsumptionPolicy::kChronicle,
    ConsumptionPolicy::kContinuous, ConsumptionPolicy::kCumulative};

class CompositionOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open(dir_.DbPath(), {});
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
  }

  static void SignalOne(EventManager* em, EventTypeId type, TxnId txn,
                        Timestamp ts) {
    auto occ = std::make_shared<EventOccurrence>();
    occ->type = type;
    occ->txn = txn;
    occ->timestamp = ts;
    em->Signal(std::move(occ));
  }

  static void EndTxn(EventManager* em, TxnId txn, bool commit) {
    SentryEvent ev;
    ev.kind = commit ? SentryKind::kTxnCommit : SentryKind::kTxnAbort;
    ev.txn = txn;
    em->OnEvent(ev);
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
};

// One canonical line per detection: composite name, transaction, and the
// (type, timestamp) of every constituent in detection order.
std::string DetectionKey(const std::string& name,
                         const EventOccurrence& occ) {
  std::string key = name + "|txn=" + std::to_string(occ.txn) + "|";
  for (const auto& c : occ.constituents) {
    key += "(" + std::to_string(c->type) + "," +
           std::to_string(c->timestamp) + ")";
  }
  return key;
}

struct Shape {
  std::string name;
  EventExprPtr expr;
};

// Primitive types a, b, c plus every shape under every policy, each with a
// listener recording its detections.
struct Harness {
  std::mutex mu;
  std::vector<std::string> detections;
  EventTypeId types[3] = {};
  std::unique_ptr<EventManager> em;  // last: destroyed first

  Harness(Database* db, const Config& cfg,
          std::vector<Shape> (*shapes)(EventTypeId, EventTypeId,
                                       EventTypeId)) {
    EventManagerOptions opts;
    opts.async_composition = cfg.async;
    opts.composition_threads = cfg.lanes;
    em = std::make_unique<EventManager>(db, opts);
    auto a = em->DefineMethodEvent("ea", "C", "a");
    auto b = em->DefineMethodEvent("eb", "C", "b");
    auto c = em->DefineMethodEvent("ec", "C", "c");
    EXPECT_TRUE(a.ok() && b.ok() && c.ok());
    types[0] = *a;
    types[1] = *b;
    types[2] = *c;
    for (ConsumptionPolicy policy : kPolicies) {
      const std::string suffix = ConsumptionPolicyName(policy);
      for (const Shape& shape : shapes(*a, *b, *c)) {
        const std::string name = shape.name + "_" + suffix;
        auto comp = em->DefineComposite(name, shape.expr,
                                        CompositeScope::kSingleTxn, policy);
        EXPECT_TRUE(comp.ok()) << name;
        em->AddEventListener(*comp, [this, name](const EventOccurrencePtr& o) {
          std::lock_guard<std::mutex> lock(mu);
          detections.push_back(DetectionKey(name, *o));
        });
      }
    }
  }

  std::vector<std::string> Sorted() {
    std::lock_guard<std::mutex> lock(mu);
    std::vector<std::string> out = detections;
    std::sort(out.begin(), out.end());
    return out;
  }
};

std::vector<Shape> AllShapes(EventTypeId a, EventTypeId b, EventTypeId c) {
  using E = EventExpr;
  return {
      {"seq_ab", E::Seq(E::Prim(a), E::Prim(b))},
      {"and_bc", E::And(E::Prim(b), E::Prim(c))},
      {"or_ac", E::Or(E::Prim(a), E::Prim(c))},
      {"hist_c3", E::History(E::Prim(c), 3)},
      {"not_acb", E::Not(E::Prim(a), E::Prim(c), E::Prim(b))},
      {"seq_ab_c", E::Seq(E::Seq(E::Prim(a), E::Prim(b)), E::Prim(c))},
  };
}

// The order-sensitive shapes only.
std::vector<Shape> OrderShapes(EventTypeId a, EventTypeId b, EventTypeId c) {
  using E = EventExpr;
  return {
      {"seq_ab", E::Seq(E::Prim(a), E::Prim(b))},
      {"not_acb", E::Not(E::Prim(a), E::Prim(c), E::Prim(b))},
      {"seq_ab_c", E::Seq(E::Seq(E::Prim(a), E::Prim(b)), E::Prim(c))},
  };
}

TEST_F(CompositionOrderTest, RandomWorkloadEquivalenceAcrossPolicies) {
  for (uint64_t seed : {11ULL, 347ULL, 90001ULL}) {
    std::vector<std::vector<std::string>> per_config;
    for (const Config& cfg : kConfigs) {
      Harness h(db_.get(), cfg, AllShapes);
      // One producer, transactions interleaved, unique increasing
      // timestamps.
      Lcg rng(seed);
      for (int i = 0; i < 2000; ++i) {
        const EventTypeId type = h.types[rng.Next() % 3];
        const TxnId txn = static_cast<TxnId>(rng.Next() % 8) + 1;
        SignalOne(h.em.get(), type, txn, i + 1);
      }
      h.em->Quiesce();
      for (TxnId txn = 1; txn <= 8; ++txn) {
        EndTxn(h.em.get(), txn, /*commit=*/txn % 2 == 0);
      }
      h.em->Quiesce();
      EXPECT_EQ(h.em->LivePartials(), 0u);
      per_config.push_back(h.Sorted());
    }
    EXPECT_FALSE(per_config[0].empty()) << "seed " << seed;
    EXPECT_EQ(per_config[0], per_config[1])
        << "one lane diverged from inline, seed " << seed;
    EXPECT_EQ(per_config[0], per_config[2])
        << "four lanes diverged from inline, seed " << seed;
  }
}

// Four producers, each owning four transactions, signal concurrently into
// four lanes. Per transaction the feed order is fixed by its producer, so
// Seq, Not and a nested Seq must detect exactly what inline composition
// detects — the guarantee a pool that moves one transaction's occurrences
// between workers cannot give.
TEST_F(CompositionOrderTest, ConcurrentProducersOnFourLanesMatchInline) {
  constexpr int kProducers = 4;
  constexpr int kTxnsPerProducer = 4;
  constexpr int kPerProducer = 3000;
  std::vector<std::vector<std::string>> per_config;
  for (const Config& cfg : {kConfigs[0], kConfigs[2]}) {
    Harness h(db_.get(), cfg, OrderShapes);
    std::vector<std::thread> producers;
    for (int w = 0; w < kProducers; ++w) {
      producers.emplace_back([&h, w] {
        Lcg rng(1000 + static_cast<uint64_t>(w));
        for (int i = 0; i < kPerProducer; ++i) {
          const EventTypeId type = h.types[rng.Next() % 3];
          const TxnId txn = static_cast<TxnId>(
              w * kTxnsPerProducer + rng.Next() % kTxnsPerProducer + 1);
          SignalOne(h.em.get(), type, txn,
                    static_cast<Timestamp>(w) * 1000000 + i + 1);
        }
      });
    }
    for (auto& t : producers) t.join();
    h.em->Quiesce();
    for (TxnId txn = 1; txn <= kProducers * kTxnsPerProducer; ++txn) {
      EndTxn(h.em.get(), txn, /*commit=*/true);
    }
    h.em->Quiesce();
    EXPECT_EQ(h.em->LivePartials(), 0u);
    per_config.push_back(h.Sorted());
  }
  ASSERT_FALSE(per_config[0].empty());
  EXPECT_EQ(per_config[0].size(), per_config[1].size());
  EXPECT_TRUE(per_config[0] == per_config[1])
      << "four lanes with concurrent producers diverged from inline";
}

// Rules across every coupling mode observe the same triggers and run the
// same actions whether the composite feeding them is composed inline or on
// four lanes. Immediate coupling is only legal on the primitive itself.
TEST(CompositionOrderRulesTest, CouplingModeEquivalence) {
  std::vector<std::map<std::string, uint64_t>> per_mode;
  for (bool async : {false, true}) {
    TempDir dir;
    VirtualClock clock;
    ReachOptions options;
    options.database.clock = &clock;
    options.events.async_composition = async;
    options.events.composition_threads = 4;
    auto db = ReachDb::Open(dir.DbPath(), options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)
                    ->RegisterClass(
                        ClassBuilder("Counter")
                            .Attribute("n", ValueType::kInt, Value(0))
                            .Method("bump",
                                    [](Session& s, DbObject& self,
                                       const std::vector<Value>&)
                                        -> Result<Value> {
                                      int64_t now =
                                          self.Get("n").as_int() + 1;
                                      REACH_RETURN_IF_ERROR(s.SetAttr(
                                          self.oid(), "n", Value(now)));
                                      return Value(now);
                                    }))
                    .ok());
    auto ev = (*db)->events()->DefineMethodEvent("bump_ev", "Counter", "bump");
    ASSERT_TRUE(ev.ok());
    auto triple = (*db)->events()->DefineComposite(
        "triple", EventExpr::History(EventExpr::Prim(*ev), 3),
        CompositeScope::kSingleTxn);
    ASSERT_TRUE(triple.ok());

    auto define = [&](const std::string& name, EventTypeId event,
                      CouplingMode mode) {
      RuleSpec spec;
      spec.name = name;
      spec.event = event;
      spec.coupling = mode;
      spec.action = [](Session&, const EventOccurrence&) -> Status {
        return Status::OK();
      };
      ASSERT_TRUE((*db)->rules()->DefineRule(std::move(spec)).ok());
    };
    define("imm", *ev, CouplingMode::kImmediate);
    define("def", *triple, CouplingMode::kDeferred);
    define("det", *triple, CouplingMode::kDetached);
    define("par", *triple, CouplingMode::kParallelCausallyDependent);
    define("seq", *triple, CouplingMode::kSequentialCausallyDependent);
    define("exc", *triple, CouplingMode::kExclusiveCausallyDependent);

    // One committing and one aborting trigger transaction, so both sides
    // of every causal dependency are exercised.
    for (bool commit : {true, false}) {
      Session s((*db)->database());
      ASSERT_TRUE(s.Begin().ok());
      auto oid = s.PersistNew("Counter", {});
      ASSERT_TRUE(oid.ok());
      for (int i = 0; i < 9; ++i) {
        ASSERT_TRUE(s.Invoke(*oid, "bump").ok());
      }
      // Deliver all composite detections before end-of-transaction: the
      // deferred phase and the causal bookkeeping run at commit/abort.
      (*db)->events()->Quiesce();
      ASSERT_TRUE((commit ? s.Commit() : s.Abort()).ok());
    }
    (*db)->Drain();

    std::map<std::string, uint64_t> counts;
    for (const char* name : {"imm", "def", "det", "par", "seq", "exc"}) {
      auto stats = (*db)->rules()->StatsOf(name);
      ASSERT_TRUE(stats.ok());
      counts[std::string(name) + ".triggered"] = stats->triggered;
      counts[std::string(name) + ".actions"] = stats->actions_run;
    }
    EXPECT_GT(counts["imm.actions"], 0u);
    EXPECT_GT(counts["def.actions"], 0u);
    per_mode.push_back(std::move(counts));
  }
  EXPECT_EQ(per_mode[0], per_mode[1]);
}

// Multi-threaded producers on four lanes (the CI TSan stress target):
// per-transaction completion counts are exact because History(4) under
// chronicle consumption completes on every 4th feed.
TEST_F(CompositionOrderTest, StressExactCompletionCounts) {
  EventManagerOptions opts;
  opts.async_composition = true;
  opts.composition_threads = 4;
  auto em = std::make_unique<EventManager>(db_.get(), opts);
  auto id = em->DefineMethodEvent("px", "C", "mx");
  ASSERT_TRUE(id.ok());
  auto comp = em->DefineComposite("quad",
                                  EventExpr::History(EventExpr::Prim(*id), 4),
                                  CompositeScope::kSingleTxn);
  ASSERT_TRUE(comp.ok());

  std::mutex mu;
  std::map<TxnId, uint64_t> completions;
  em->AddEventListener(*comp, [&](const EventOccurrencePtr& occ) {
    std::lock_guard<std::mutex> lock(mu);
    completions[occ->txn]++;
  });

  constexpr int kThreads = 4;
  constexpr int kPerThread = 4000;
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      const TxnId txn = static_cast<TxnId>(w) + 1;
      for (int i = 0; i < kPerThread; ++i) {
        SignalOne(em.get(), *id, txn,
                  static_cast<Timestamp>(w) * 1000000 + i + 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  em->Quiesce();

  for (int w = 0; w < kThreads; ++w) {
    const TxnId txn = static_cast<TxnId>(w) + 1;
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(completions[txn], static_cast<uint64_t>(kPerThread / 4))
        << "txn " << txn;
  }
  EXPECT_EQ(em->signaled_count(),
            static_cast<uint64_t>(kThreads) * kPerThread +
                em->composite_count());
  for (TxnId txn = 1; txn <= kThreads; ++txn) EndTxn(em.get(), txn, true);
  em->Quiesce();
  EXPECT_EQ(em->LivePartials(), 0u);
}

}  // namespace
}  // namespace reach
