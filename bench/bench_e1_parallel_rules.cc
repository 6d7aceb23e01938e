// E1 — the measurement §6.4 says the nested-transaction work enables:
// serial ring-sequence vs parallel sibling-subtransaction rule execution,
// for rule-set sizes 1..16 and action costs 0..1000us. Expected shape:
// serial time grows linearly with (rules x cost); parallel flattens once
// cost dominates the subtransaction setup overhead, and loses slightly
// when actions are nearly free.
#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <thread>

#include "core/reach/reach_db.h"

namespace reach {
namespace {

// Rule-action cost is modeled as *latency* (sleep), not CPU burn: the
// paper's target actions — operator notification, device commands,
// contingency invocation — wait on external systems, and latency-bound
// actions are what parallel subtransactions overlap even on few cores.
// (CPU-bound actions additionally need real processors; the paper's
// platform was multiprocessor Solaris.)
void ActionCostMicros(int64_t us) {
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
}

std::unique_ptr<ReachDb> Open(bool parallel, int n_rules, int64_t cost_us,
                              const std::string& tag) {
  std::string base =
      (std::filesystem::temp_directory_path() / ("reach_e1_" + tag)).string();
  std::filesystem::remove(base + ".db");
  std::filesystem::remove(base + ".wal");
  ReachOptions options;
  options.rules.multi_rule_execution =
      parallel ? RuleEngineOptions::Execution::kParallelSubtransactions
               : RuleEngineOptions::Execution::kSerialRingSequence;
  auto db = ReachDb::Open(base, std::move(options));
  if (!db.ok()) std::abort();
  Status st = (*db)->RegisterClass(
      ClassBuilder("Plant")
          .Attribute("v", ValueType::kInt, Value(0))
          .Method("tick", [](Session&, DbObject&,
                             const std::vector<Value>&) -> Result<Value> {
            return Value();
          }));
  if (!st.ok()) std::abort();
  auto ev = (*db)->events()->DefineMethodEvent("tick_ev", "Plant", "tick");
  for (int i = 0; i < n_rules; ++i) {
    RuleSpec spec;
    spec.name = "rule" + std::to_string(i);
    spec.event = *ev;
    spec.coupling = CouplingMode::kImmediate;
    spec.action = [cost_us](Session&, const EventOccurrence&) -> Status {
      ActionCostMicros(cost_us);
      return Status::OK();
    };
    if (!(*db)->rules()->DefineRule(std::move(spec)).ok()) std::abort();
  }
  return std::move(*db);
}

void RunBody(benchmark::State& state, bool parallel) {
  int n_rules = static_cast<int>(state.range(0));
  int64_t cost_us = state.range(1);
  auto db = Open(parallel, n_rules, cost_us,
                 (parallel ? "par_" : "ser_") + std::to_string(n_rules) +
                     "_" + std::to_string(cost_us));
  Session s(db->database());
  if (!s.Begin().ok()) std::abort();
  auto oid = s.PersistNew("Plant", {});
  if (!oid.ok()) std::abort();
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.Invoke(*oid, "tick"));
  }
  (void)s.Abort();
  state.counters["rules"] = n_rules;
  state.counters["action_us"] = static_cast<double>(cost_us);
}

void BM_SerialRingSequence(benchmark::State& state) { RunBody(state, false); }
void BM_ParallelSubtransactions(benchmark::State& state) {
  RunBody(state, true);
}

void Args(benchmark::internal::Benchmark* b) {
  for (int rules : {1, 4, 16}) {
    for (int64_t cost : {0, 100, 1000}) {
      b->Args({rules, cost});
    }
  }
  b->Unit(benchmark::kMicrosecond);
}

BENCHMARK(BM_SerialRingSequence)->Apply(Args);
BENCHMARK(BM_ParallelSubtransactions)->Apply(Args);

}  // namespace
}  // namespace reach

BENCHMARK_MAIN();
