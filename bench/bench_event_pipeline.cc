// Event pipeline scaling — the acceptance benchmark for the lock-free
// dispatch path (docs/EVENTS.md): N detecting threads push occurrences
// through EventManager::Signal while the composite fan-out is swept.
//
//   BM_SignalFanout/comp:4  composition on two keyed FIFO lanes: one task
//                           per occurrence on its transaction's lane
//   BM_SignalFanout/comp:0  pure dispatch: snapshot load + history append,
//                           no composition enqueue at all
//   BM_CompositeLatency*    single-thread Signal->Quiesce round trip for a
//                           conjunction: full completion latency including
//                           the lane handoff, inline and on the lanes
//
// Each detecting thread signals its own primitive event type inside its own
// transaction, so per-type histories and per-txn compositor instances are
// naturally partitioned — what remains on the shared path is lock-free
// (the dispatch snapshot load) or striped (the compositor instance maps).
// Producers apply backpressure when the composition queue exceeds
// kMaxQueueDepth, so the numbers are end-to-end pipeline throughput, not
// enqueue-into-an-unbounded-buffer throughput.
//
// CI gates ratios, not absolutes (RATIO_PAIRS in scripts/bench_compare.py):
// threads:8 / threads:1 of BM_SignalFanout/comp:4 and threads:4 /
// threads:1 of comp:0 — multicore Signal scaling losing ground is a
// property of the code.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/events/event_manager.h"
#include "oodb/database.h"

namespace reach {
namespace {

constexpr int kTypes = 16;           // primitive types, thread t uses t % 16
constexpr uint32_t kHistoryN = 64;   // History(prim, 64): bounded partials
constexpr size_t kMaxQueueDepth = 4096;

std::string ScratchBase(const std::string& tag) {
  const char* dir = std::getenv("REACH_BENCH_DIR");
  std::filesystem::path base =
      std::filesystem::path(dir != nullptr ? dir : ".") /
      "bench_event_scratch";
  std::filesystem::create_directories(base);
  std::string path = (base / tag).string();
  std::filesystem::remove(path + ".db");
  std::filesystem::remove(path + ".wal");
  return path;
}

// Shared across the benchmark's threads; thread 0 owns setup/teardown and
// the google-benchmark start barrier keeps the others out until it's done.
struct SharedEm {
  std::unique_ptr<Database> db;
  std::unique_ptr<EventManager> em;
  std::vector<EventTypeId> types;
};
SharedEm g_em;

void SetupPipeline(int composites_per_type, const std::string& tag) {
  auto db = Database::Open(ScratchBase(tag), {});
  if (!db.ok()) std::abort();
  g_em.db = std::move(*db);
  EventManagerOptions opts;
  opts.composition_threads = 2;
  // The producers never commit, so don't buffer per-txn history forever.
  opts.maintain_global_history = false;
  g_em.em = std::make_unique<EventManager>(g_em.db.get(), opts);
  g_em.types.clear();
  for (int t = 0; t < kTypes; ++t) {
    auto id = g_em.em->DefineMethodEvent("prim" + std::to_string(t), "Bench",
                                         "m" + std::to_string(t));
    if (!id.ok()) std::abort();
    g_em.types.push_back(*id);
    // Single-txn History composites: each thread's transaction gets its own
    // automaton instance, completing (and recycling buffers) every kHistoryN
    // occurrences.
    for (int c = 0; c < composites_per_type; ++c) {
      auto comp = g_em.em->DefineComposite(
          "comp" + std::to_string(t) + "_" + std::to_string(c),
          EventExpr::History(EventExpr::Prim(*id), kHistoryN),
          CompositeScope::kSingleTxn);
      if (!comp.ok()) std::abort();
    }
  }
}

void TeardownPipeline(benchmark::State& state) {
  g_em.em->Quiesce();
  state.counters["signaled"] =
      benchmark::Counter(static_cast<double>(g_em.em->signaled_count()));
  state.counters["composed"] =
      benchmark::Counter(static_cast<double>(g_em.em->composite_count()));
  g_em.em.reset();
  g_em.db.reset();
}

void BM_SignalFanout(benchmark::State& state) {
  const int comp = static_cast<int>(state.range(0));
  if (state.thread_index() == 0) {
    SetupPipeline(comp, "lanes" + std::to_string(comp));
  }
  const TxnId txn = static_cast<TxnId>(state.thread_index()) + 1;
  EventTypeId type = 0;
  size_t n = 0;
  for (auto _ : state) {
    if (n == 0) {
      // Read shared setup state only after the start barrier: thread 0
      // populates g_em.types before the loop, and non-zero threads reaching
      // the modulo earlier raced it (types.size() == 0 is a SIGFPE).
      type = g_em.types[static_cast<size_t>(state.thread_index()) %
                        g_em.types.size()];
    }
    auto occ = std::make_shared<EventOccurrence>();
    occ->type = type;
    occ->txn = txn;
    occ->timestamp = 1;  // explicit: keep the clock out of the loop
    g_em.em->Signal(std::move(occ));
    if ((++n & 255) == 0) {
      while (g_em.em->composition_queue_depth() > kMaxQueueDepth) {
        std::this_thread::yield();
      }
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) TeardownPipeline(state);
}

BENCHMARK(BM_SignalFanout)
    ->ArgName("comp")
    ->Arg(0)
    ->Arg(4)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->Threads(16)
    ->UseRealTime()
    ->Unit(benchmark::kNanosecond);

// Completion latency: And(A, B) per iteration — Signal both legs, then
// Quiesce so the composite has provably been raised. Measures the full
// signal -> enqueue -> compose -> completion-signal round trip.
void LatencyBody(benchmark::State& state, bool async, const std::string& tag) {
  auto db = Database::Open(ScratchBase("lat_" + tag), {});
  if (!db.ok()) std::abort();
  EventManagerOptions opts;
  opts.async_composition = async;
  opts.composition_threads = 2;
  opts.maintain_global_history = false;
  EventManager em((*db).get(), opts);
  auto a = em.DefineMethodEvent("lat_a", "Bench", "a");
  auto b = em.DefineMethodEvent("lat_b", "Bench", "b");
  auto comp = em.DefineComposite(
      "lat_and", EventExpr::And(EventExpr::Prim(*a), EventExpr::Prim(*b)),
      CompositeScope::kSingleTxn);
  if (!comp.ok()) std::abort();
  for (auto _ : state) {
    for (EventTypeId leg : {*a, *b}) {
      auto occ = std::make_shared<EventOccurrence>();
      occ->type = leg;
      occ->txn = 1;
      occ->timestamp = 1;
      em.Signal(std::move(occ));
    }
    em.Quiesce();
  }
  state.counters["composed"] =
      benchmark::Counter(static_cast<double>(em.composite_count()));
}

void BM_CompositeLatencyInline(benchmark::State& state) {
  LatencyBody(state, /*async=*/false, "inline");
}
void BM_CompositeLatencyWS(benchmark::State& state) {
  LatencyBody(state, /*async=*/true, "ws");
}

BENCHMARK(BM_CompositeLatencyInline)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CompositeLatencyWS)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace reach

BENCHMARK_MAIN();
