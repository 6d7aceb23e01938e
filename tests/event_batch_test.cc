// Batched event pipeline (docs/EVENTS.md "Batched pipeline"): the batch
// path must be detection-equivalent to single-event dispatch. Property
// test: identical pseudo-random workloads run inline, and on the
// work-stealing pool with batch_mode on and off (and with a small batch
// size forcing mid-run flush boundaries), must produce exactly the same
// composite detections under all four SNOOP
// consumption policies; rule executions across every coupling mode must
// not change; and a multi-threaded stress run (the TSan CI target) must
// produce exact per-transaction completion counts.
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

// Deterministic 64-bit LCG so both pipeline configurations replay the
// exact same workload (no std::random_device).
struct Lcg {
  uint64_t state;
  explicit Lcg(uint64_t seed) : state(seed) {}
  uint64_t Next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 17;
  }
};

class EventBatchTest : public ::testing::Test {
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

TEST_F(EventBatchTest, RandomWorkloadEquivalenceAcrossPolicies) {
  struct Config {
    bool async;
    bool batch;
    size_t max_events;
  };
  // Inline composition as the reference, then work-stealing with batching
  // off, the default batch size, and a tiny batch size that forces flush
  // boundaries to land mid-expression.
  const Config configs[] = {
      {false, false, 64}, {true, false, 64}, {true, true, 64}, {true, true, 5}};
  const ConsumptionPolicy policies[] = {
      ConsumptionPolicy::kRecent, ConsumptionPolicy::kChronicle,
      ConsumptionPolicy::kContinuous, ConsumptionPolicy::kCumulative};
  for (uint64_t seed : {11ULL, 347ULL, 90001ULL}) {
    std::vector<std::vector<std::string>> per_config;
    for (const Config& cfg : configs) {
      EventManagerOptions opts;
      opts.async_composition = cfg.async;
      opts.composition_threads = 1;  // FIFO: Seq is feed-order sensitive
      opts.batch_mode = cfg.batch;
      opts.batch_max_events = cfg.max_events;
      auto em = std::make_unique<EventManager>(db_.get(), opts);
      auto a = em->DefineMethodEvent("ea", "C", "a");
      auto b = em->DefineMethodEvent("eb", "C", "b");
      auto c = em->DefineMethodEvent("ec", "C", "c");
      ASSERT_TRUE(a.ok() && b.ok() && c.ok());

      std::mutex mu;
      std::vector<std::string> detections;
      for (ConsumptionPolicy policy : policies) {
        const std::string suffix = ConsumptionPolicyName(policy);
        struct Shape {
          std::string name;
          EventExprPtr expr;
        };
        const Shape shapes[] = {
            {"seq_ab_" + suffix,
             EventExpr::Seq(EventExpr::Prim(*a), EventExpr::Prim(*b))},
            {"and_bc_" + suffix,
             EventExpr::And(EventExpr::Prim(*b), EventExpr::Prim(*c))},
            {"or_ac_" + suffix,
             EventExpr::Or(EventExpr::Prim(*a), EventExpr::Prim(*c))},
            {"hist_c3_" + suffix,
             EventExpr::History(EventExpr::Prim(*c), 3)},
        };
        for (const Shape& shape : shapes) {
          auto comp = em->DefineComposite(shape.name, shape.expr,
                                          CompositeScope::kSingleTxn, policy);
          ASSERT_TRUE(comp.ok());
          std::string name = shape.name;
          em->AddEventListener(
              *comp, [&mu, &detections, name](const EventOccurrencePtr& occ) {
                std::lock_guard<std::mutex> lock(mu);
                detections.push_back(DetectionKey(name, *occ));
              });
        }
      }

      // Single producer, unique increasing timestamps: per-thread admission
      // order is preserved by the batch path, so one producer plus one
      // composition worker makes the feed deterministic.
      Lcg rng(seed);
      const EventTypeId types[] = {*a, *b, *c};
      for (int i = 0; i < 2000; ++i) {
        const EventTypeId type = types[rng.Next() % 3];
        const TxnId txn = static_cast<TxnId>(rng.Next() % 8) + 1;
        SignalOne(em.get(), type, txn, i + 1);
      }
      em->Quiesce();
      for (TxnId txn = 1; txn <= 8; ++txn) {
        EndTxn(em.get(), txn, /*commit=*/txn % 2 == 0);
      }
      em->Quiesce();
      EXPECT_EQ(em->LivePartials(), 0u);
      std::sort(detections.begin(), detections.end());
      per_config.push_back(std::move(detections));
    }
    EXPECT_FALSE(per_config[0].empty()) << "seed " << seed;
    EXPECT_EQ(per_config[0], per_config[1])
        << "work-stealing diverged from inline, seed " << seed;
    EXPECT_EQ(per_config[1], per_config[2])
        << "batch on/off diverged, seed " << seed;
    EXPECT_EQ(per_config[1], per_config[3])
        << "small batch size diverged, seed " << seed;
  }
}

// Rules across every coupling mode observe the same triggers and run the
// same actions whether or not the primitives feeding their composite were
// batched. Immediate coupling is only legal on the primitive itself —
// which carries a rule listener and therefore takes the scalar fallback;
// that mixed batched/unbatched workload is exactly what production looks
// like.
TEST(EventBatchRulesTest, CouplingModeEquivalence) {
  std::vector<std::map<std::string, uint64_t>> per_mode;
  for (bool batch : {false, true}) {
    TempDir dir;
    VirtualClock clock;
    ReachOptions options;
    options.database.clock = &clock;
    options.events.async_composition = true;
    options.events.composition_threads = 1;
    options.events.batch_mode = batch;
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

// Multi-threaded producers with the batch path on (the CI TSan stress
// target): per-transaction completion counts are exact because History(4)
// under chronicle consumption completes on every 4th feed regardless of
// worker interleaving.
TEST_F(EventBatchTest, StressExactCompletionCounts) {
  EventManagerOptions opts;
  opts.async_composition = true;
  opts.composition_threads = 4;
  opts.batch_mode = true;
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
