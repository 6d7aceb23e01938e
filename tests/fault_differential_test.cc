// Differential test for §6.4 multi-rule execution: with the *same* seeded
// fault schedule injected into rule subtransactions, the serial ring
// sequence and the parallel sibling-subtransaction scheduler must converge
// to the same final database state. This leans on keyed probability
// injection — the abort decision hashes (seed, rule, occurrence), so it is
// identical no matter which thread evaluates it or in what order.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "core/reach/reach_db.h"
#include "test_util.h"
#include "testing/fault_points.h"
#include "testing/fault_registry.h"

namespace reach {
namespace {

using reach::testing::TempDir;
using Execution = RuleEngineOptions::Execution;

constexpr int kCounters = 5;
constexpr int kTicks = 30;

// Build a fresh database, fire kTicks method events against kCounters
// independent immediate rules (rule i increments counter i) under a 35%
// keyed-abort probability on rule.subtxn.exec, and return the final counter
// values. A rule whose subtransaction draws an injected abort contributes
// nothing for that firing; everything else must land.
std::vector<int64_t> RunMode(Execution mode, uint64_t seed) {
  TempDir dir;
  ReachOptions options;
  options.events.async_composition = false;
  options.rules.multi_rule_execution = mode;
  auto db_or = ReachDb::Open(dir.DbPath(), options);
  EXPECT_TRUE(db_or.ok()) << db_or.status().ToString();
  auto db = std::move(*db_or);

  EXPECT_TRUE(db->RegisterClass(
                    ClassBuilder("Counter")
                        .Attribute("n", ValueType::kInt, Value(0))
                        .Method("tick", [](Session&, DbObject&,
                                           const std::vector<Value>&)
                                    -> Result<Value> { return Value(); }))
                  .ok());
  auto ev = db->events()->DefineMethodEvent("tick_ev", "Counter", "tick");
  EXPECT_TRUE(ev.ok());

  std::vector<Oid> oids;
  {
    Session s(db->database());
    EXPECT_TRUE(s.Begin().ok());
    for (int i = 0; i < kCounters; ++i) {
      auto oid = s.PersistNew("Counter", {});
      EXPECT_TRUE(oid.ok());
      oids.push_back(*oid);
    }
    EXPECT_TRUE(s.Commit().ok());
  }
  for (int i = 0; i < kCounters; ++i) {
    RuleSpec spec;
    spec.name = "inc" + std::to_string(i);
    spec.event = *ev;
    spec.coupling = CouplingMode::kImmediate;
    Oid target = oids[i];
    spec.action = [target](Session& s, const EventOccurrence&) -> Status {
      auto n = s.GetAttr(target, "n");
      REACH_RETURN_IF_ERROR(n.status());
      return s.SetAttr(target, "n", Value(n->as_int() + 1));
    };
    EXPECT_TRUE(db->rules()->DefineRule(std::move(spec)).ok());
  }

  auto& reg = FaultRegistry::Instance();
  reg.DisarmAll();
  reg.SetSeed(seed);
  reg.ArmErrorWithProbability(faults::kRuleSubtxnExec, Status::Code::kAborted,
                              0.35);
  {
    Session s(db->database());
    EXPECT_TRUE(s.Begin().ok());
    for (int t = 0; t < kTicks; ++t) {
      // A failed rule subtransaction surfaces here as a non-OK status (the
      // rule does not abort the triggering transaction); keep ticking.
      (void)s.Invoke(oids[0], "tick", {});
    }
    EXPECT_TRUE(s.Commit().ok());
  }
  reg.DisarmAll();

  std::vector<int64_t> counters;
  {
    Session s(db->database());
    EXPECT_TRUE(s.Begin().ok());
    for (const Oid& oid : oids) {
      auto n = s.GetAttr(oid, "n");
      EXPECT_TRUE(n.ok()) << n.status().ToString();
      counters.push_back(n.ok() ? n->as_int() : -1);
    }
    EXPECT_TRUE(s.Commit().ok());
  }
  return counters;
}

class FaultDifferentialTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultRegistry::Instance().DisarmAll(); }
};

TEST_F(FaultDifferentialTest, SerialAndParallelConvergeUnderInjectedAborts) {
  for (uint64_t seed : {0x5EEDULL, 0xDA7A1ULL, 0x10CA1ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::vector<int64_t> serial = RunMode(Execution::kSerialRingSequence, seed);
    std::vector<int64_t> parallel =
        RunMode(Execution::kParallelSubtransactions, seed);
    EXPECT_EQ(serial, parallel)
        << "serial ring and parallel subtransactions diverged";

    // The schedule must be interesting: some firings aborted, some landed.
    int64_t total = std::accumulate(serial.begin(), serial.end(), int64_t{0});
    EXPECT_GT(total, 0) << "every rule firing was aborted";
    EXPECT_LT(total, int64_t{kCounters} * kTicks)
        << "no rule firing was aborted — injection did not engage";
  }
}

TEST_F(FaultDifferentialTest, SameSeedReproducesSameState) {
  std::vector<int64_t> a = RunMode(Execution::kParallelSubtransactions, 42);
  std::vector<int64_t> b = RunMode(Execution::kParallelSubtransactions, 42);
  EXPECT_EQ(a, b);
}

TEST_F(FaultDifferentialTest, DifferentSeedsProduceDifferentSchedules) {
  // Not guaranteed for arbitrary seed pairs, but these were chosen to
  // differ; equality would signal the seed is being ignored.
  std::vector<int64_t> a = RunMode(Execution::kSerialRingSequence, 1);
  std::vector<int64_t> b = RunMode(Execution::kSerialRingSequence, 2);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace reach
