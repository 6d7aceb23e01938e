// Group commit — the acceptance benchmark for the batched WAL flusher
// (docs/STORAGE.md): N committer threads run insert+commit transactions
// against one StorageManager, once with the inline path (one write+fsync
// per commit) and once with group commit. `items_per_second` is
// commits/sec; the `fsyncs_per_txn` counter is the piggybacking ratio (1.0 =
// every commit pays its own fsync). The bar: grouped commit at 16 threads
// sustains >= 3x the direct (fsync per commit) rate with fsyncs_per_txn
// < 0.5.
//
// Scratch files live under the working directory by default — commit cost
// is fsync-dominated and /tmp is frequently tmpfs, where fsync is a no-op
// and both paths look identical. Set REACH_BENCH_DIR to aim elsewhere.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "storage/storage_manager.h"
#include "txn/transaction_manager.h"

namespace reach {
namespace {

std::string ScratchBase(const std::string& tag) {
  const char* dir = std::getenv("REACH_BENCH_DIR");
  std::filesystem::path base =
      std::filesystem::path(dir != nullptr ? dir : ".") / "bench_gc_scratch";
  std::filesystem::create_directories(base);
  std::string path = (base / tag).string();
  std::filesystem::remove(path + ".db");
  std::filesystem::remove(path + ".wal");
  return path;
}

// Shared across the benchmark's threads; thread 0 owns setup/teardown and
// the google-benchmark start barrier keeps the others out until it's done.
struct SharedDb {
  std::unique_ptr<StorageManager> sm;
  std::unique_ptr<TransactionManager> tm;
  uint64_t fsync_base = 0;
};
SharedDb g_db;

void CommitLoop(benchmark::State& state, const WalOptions& wal,
                const char* tag) {
  auto& reg = obs::MetricsRegistry::Instance();
  if (state.thread_index() == 0) {
    reg.SetEnabled(true);
    StorageOptions opts;
    opts.wal = wal;
    auto sm = StorageManager::Open(ScratchBase(tag), opts);
    if (!sm.ok()) std::abort();
    g_db.sm = std::move(*sm);
    g_db.tm = std::make_unique<TransactionManager>(g_db.sm.get());
    g_db.fsync_base = reg.counter(obs::kWalFsyncCount)->value();
  }
  std::string payload(128, 'c');
  for (auto _ : state) {
    auto txn = g_db.tm->Begin();
    if (!txn.ok()) std::abort();
    benchmark::DoNotOptimize(g_db.sm->objects()->Insert(*txn, payload));
    if (!g_db.tm->Commit(*txn).ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    uint64_t fsyncs =
        reg.counter(obs::kWalFsyncCount)->value() - g_db.fsync_base;
    double commits =
        static_cast<double>(state.iterations()) * state.threads();
    state.counters["fsyncs_per_txn"] = benchmark::Counter(
        commits > 0 ? static_cast<double>(fsyncs) / commits : 0.0);
    g_db.tm.reset();
    g_db.sm.reset();
  }
}

void BM_GroupCommit_Direct(benchmark::State& state) {
  // Baseline: the pre-group-commit path, one fsync per commit.
  WalOptions wal;
  wal.group_commit = false;
  CommitLoop(state, wal, "direct");
}

void BM_GroupCommit_Grouped(benchmark::State& state) {
  // The default: flush immediately when the flusher is idle, coalesce
  // whatever arrives while an fsync is in flight.
  WalOptions wal;
  wal.group_commit = true;
  CommitLoop(state, wal, "grouped");
}

BENCHMARK(BM_GroupCommit_Direct)
    ->Threads(1)->Threads(4)->Threads(16)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_GroupCommit_Grouped)
    ->Threads(1)->Threads(4)->Threads(16)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace reach

BENCHMARK_MAIN();
