// Group-commit subsystem (see docs/STORAGE.md): durable-LSN watermark
// monotonicity under concurrent committers, batch-failure semantics (every
// waiter of a failed flusher batch gets the same status), WaitDurable under
// concurrent commit/abort traffic (exercised by the TSan CI matrix), a
// mid-batch crash losing only unacknowledged commits, and a recovery
// equivalence check: the same seeded workload run with group commit on and
// off must leave identical post-recovery state under fault injection.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/random.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "storage/storage_manager.h"
#include "test_util.h"
#include "testing/fault_points.h"
#include "testing/fault_registry.h"
#include "txn/transaction_manager.h"

namespace reach {
namespace {

using reach::testing::TempDir;

class GroupCommitTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultRegistry::Instance().DisarmAll(); }

  static StorageOptions GroupedOptions(uint32_t delay_us = 0) {
    StorageOptions opts;
    opts.buffer_pool_pages = 16;
    opts.wal.group_commit = true;
    opts.wal.max_batch_delay_us = delay_us;
    return opts;
  }
};

TEST_F(GroupCommitTest, DurableLsnAdvancesAndNeverRegresses) {
  TempDir dir;
  auto sm = StorageManager::Open(dir.DbPath(), GroupedOptions()).value();
  Wal* wal = sm->wal();
  TransactionManager tm(sm.get());

  std::atomic<bool> done{false};
  std::atomic<bool> regressed{false};
  std::thread watcher([&] {
    Lsn prev = 0;
    while (!done.load(std::memory_order_acquire)) {
      Lsn cur = wal->durable_lsn();
      if (cur < prev) regressed.store(true);
      prev = cur;
    }
  });

  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 40;
  std::atomic<int> committed{0};
  std::vector<std::thread> committers;
  for (int t = 0; t < kThreads; ++t) {
    committers.emplace_back([&, t] {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        auto txn = tm.Begin();
        if (!txn.ok()) continue;
        auto oid = sm->objects()->Insert(
            *txn, "t" + std::to_string(t) + "i" + std::to_string(i));
        if (oid.ok() && tm.Commit(*txn).ok()) committed.fetch_add(1);
      }
    });
  }
  for (auto& th : committers) th.join();
  done.store(true, std::memory_order_release);
  watcher.join();

  EXPECT_FALSE(regressed.load()) << "durable-LSN watermark went backwards";
  EXPECT_EQ(committed.load(), kThreads * kTxnsPerThread);
  // Every acknowledged commit is covered by the watermark.
  EXPECT_TRUE(wal->WaitDurable(wal->durable_lsn()).ok());
  EXPECT_EQ(wal->unflushed_records(), 0u);
}

TEST_F(GroupCommitTest, BatchFailureFailsEveryWaiterWithSameStatus) {
  TempDir dir;
  WalOptions wopts;
  wopts.group_commit = true;
  auto wal = Wal::Open(dir.DbPath("wal.log"), wopts).value();
  auto& reg = FaultRegistry::Instance();
  reg.ArmError(faults::kWalFlusherBatch, Status::Code::kIoError, /*nth=*/1,
               /*one_shot=*/false);

  constexpr int kWaiters = 8;
  std::vector<Status> statuses(kWaiters, Status::OK());
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&, i] {
      WalRecord rec;
      rec.type = WalRecordType::kCommit;
      rec.txn = static_cast<TxnId>(i + 1);
      auto lsn = wal->Append(std::move(rec));
      statuses[i] = lsn.ok() ? wal->WaitDurable(*lsn) : lsn.status();
    });
  }
  for (auto& th : waiters) th.join();

  for (int i = 0; i < kWaiters; ++i) {
    EXPECT_TRUE(statuses[i].IsIoError())
        << "waiter " << i << " got " << statuses[i].ToString();
    EXPECT_EQ(statuses[i].ToString(), statuses[0].ToString())
        << "waiters of a failed batch must share one status";
  }
  EXPECT_EQ(wal->durable_lsn(), 0u) << "failed batch advanced the watermark";

  // Once the fault clears, a retry flushes the restored batch. A failing
  // batch armed before DisarmAll may still be in flight and fail the first
  // retry; the second attempt cannot see any armed fault.
  reg.DisarmAll();
  Status retry = wal->Flush();
  if (!retry.ok()) retry = wal->Flush();
  EXPECT_TRUE(retry.ok()) << retry.ToString();
  EXPECT_EQ(wal->durable_lsn(), static_cast<Lsn>(kWaiters));
  std::vector<WalRecord> records;
  ASSERT_TRUE(reach::testing::ScanRecords(wal.get(), &records).ok());
  EXPECT_EQ(records.size(), static_cast<size_t>(kWaiters));
}

TEST_F(GroupCommitTest, WaitDurableUnderConcurrentCommitAndAbort) {
  // Commit and abort traffic interleaved over the flusher: the TSan matrix
  // runs this against the flusher thread's locking discipline. A small
  // coalescing delay widens the batching window.
  TempDir dir;
  auto sm =
      StorageManager::Open(dir.DbPath(), GroupedOptions(/*delay_us=*/200))
          .value();
  TransactionManager tm(sm.get());

  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 30;
  using Effect = std::pair<Oid, std::string>;
  std::vector<std::vector<Effect>> kept(kThreads), dropped(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        auto txn = tm.Begin();
        if (!txn.ok()) continue;
        std::string value = "t" + std::to_string(t) + "v" + std::to_string(i);
        auto oid = sm->objects()->Insert(*txn, value);
        if (!oid.ok()) {
          (void)tm.Abort(*txn);
          continue;
        }
        if (i % 3 == 0) {
          if (tm.Abort(*txn).ok()) dropped[t].emplace_back(*oid, value);
        } else {
          if (tm.Commit(*txn).ok()) kept[t].emplace_back(*oid, value);
        }
      }
    });
  }
  for (auto& th : workers) th.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(kept[t].size(),
              static_cast<size_t>(kTxnsPerThread - (kTxnsPerThread + 2) / 3));
    for (const auto& [oid, value] : kept[t]) {
      auto read = sm->objects()->Read(oid);
      ASSERT_TRUE(read.ok()) << oid.ToString();
      EXPECT_EQ(*read, value);
    }
    // An aborted insert's slot may be reused by a later transaction, so the
    // OID can resolve again — but never to the rolled-back value.
    for (const auto& [oid, value] : dropped[t]) {
      auto read = sm->objects()->Read(oid);
      if (read.ok()) {
        EXPECT_NE(*read, value) << oid.ToString();
      }
    }
  }
}

TEST_F(GroupCommitTest, MidBatchCrashLosesOnlyUnacknowledgedCommits) {
  // The acceptance bar for recovery semantics: a crash in the middle of a
  // flusher batch must never lose a commit that WaitDurable acknowledged,
  // and must never surface a commit it did not.
  TempDir dir;
  auto& reg = FaultRegistry::Instance();
  Oid acked, lost;
  {
    auto sm = StorageManager::Open(dir.DbPath(), GroupedOptions()).value();
    TransactionManager tm(sm.get());

    TxnId t1 = *tm.Begin();
    acked = *sm->objects()->Insert(t1, "acknowledged");
    ASSERT_TRUE(tm.Commit(t1).ok());

    TxnId t2 = *tm.Begin();
    lost = *sm->objects()->Insert(t2, "in-flight");
    reg.ArmCrash(faults::kWalFlusherBatch, /*nth=*/1);
    EXPECT_THROW((void)tm.Commit(t2), FaultInjectedCrash);
    reg.DisarmAll();
    // Crash convention: drop the stack without flush or checkpoint.
  }
  auto sm = StorageManager::Open(dir.DbPath(), GroupedOptions()).value();
  auto read = sm->objects()->Read(acked);
  ASSERT_TRUE(read.ok()) << "acknowledged commit lost in mid-batch crash";
  EXPECT_EQ(*read, "acknowledged");
  EXPECT_FALSE(sm->objects()->Read(lost).ok())
      << "unacknowledged commit surfaced after mid-batch crash";
}

TEST_F(GroupCommitTest, GroupCommitRecordsGroupingMetrics) {
  auto& reg = obs::MetricsRegistry::Instance();
  reg.SetEnabled(true);
  reg.ResetAll();
  TempDir dir;
  {
    auto sm =
        StorageManager::Open(dir.DbPath(), GroupedOptions(/*delay_us=*/500))
            .value();
    TransactionManager tm(sm.get());
    constexpr int kThreads = 8;
    std::vector<std::thread> committers;
    for (int t = 0; t < kThreads; ++t) {
      committers.emplace_back([&] {
        for (int i = 0; i < 20; ++i) {
          auto txn = tm.Begin();
          ASSERT_TRUE(txn.ok());
          (void)sm->objects()->Insert(*txn, "m");
          ASSERT_TRUE(tm.Commit(*txn).ok());
        }
      });
    }
    for (auto& th : committers) th.join();
  }
  auto batches = reg.histogram(obs::kWalGroupSize)->Snapshot();
  EXPECT_GT(batches.count, 0u) << "no flusher batch ever completed";
  auto waits = reg.histogram(obs::kWalGroupWaitNs)->Snapshot();
  EXPECT_GT(waits.count, 0u) << "no committer ever waited on the flusher";
  reg.SetEnabled(false);
}

// ---------------------------------------------------------------------------
// Recovery equivalence: same seeded workload + same injected fault, run with
// group commit on and off, must recover to identical state. Fault points are
// restricted to wal.append and wal.flush.write, whose hit sequences are
// mode-independent (one hit per durability request with pending records);
// wal.flush.fsync fires on empty inline flushes that the group path elides,
// so its nth-hit schedule differs by construction.
// ---------------------------------------------------------------------------

struct EquivalenceOutcome {
  std::vector<Oid> attempted;  // all inserts, in schedule order
  std::vector<std::pair<Oid, std::string>> committed;
};

EquivalenceOutcome RunSeededWorkload(const std::string& base,
                                     const WalOptions& wal_opts,
                                     uint64_t seed) {
  EquivalenceOutcome out;
  StorageOptions opts;
  opts.buffer_pool_pages = 8;
  opts.wal = wal_opts;
  try {
    auto sm_or = StorageManager::Open(base, opts);
    if (!sm_or.ok()) return out;
    auto sm = std::move(*sm_or);
    TransactionManager tm(sm.get());
    Random rng(seed);
    for (int n = 0; n < 30; ++n) {
      auto txn = tm.Begin();
      if (!txn.ok()) break;
      std::vector<std::pair<Oid, std::string>> effects;
      int ops = 1 + static_cast<int>(rng.Uniform(3));
      for (int i = 0; i < ops; ++i) {
        std::string value = "n" + std::to_string(n) + "i" + std::to_string(i) +
                            std::string(rng.Uniform(400), 'e');
        auto oid = sm->objects()->Insert(*txn, value);
        if (!oid.ok()) break;
        out.attempted.push_back(*oid);
        effects.emplace_back(*oid, value);
      }
      if (rng.Bernoulli(0.7)) {
        if (tm.Commit(*txn).ok()) {
          out.committed.insert(out.committed.end(), effects.begin(),
                               effects.end());
        } else if (tm.IsActive(*txn)) {
          (void)tm.Abort(*txn);
        }
      } else {
        (void)tm.Abort(*txn);
      }
      if (rng.Bernoulli(0.3)) (void)sm->buffer_pool()->FlushAll();
    }
  } catch (const FaultInjectedCrash&) {
    // Simulated process death: fall through to the crash-convention drop.
  }
  return out;
}

std::string RecoveredFingerprint(const std::string& base,
                                 const EquivalenceOutcome& out) {
  auto sm_or = StorageManager::Open(base, {.buffer_pool_pages = 8});
  EXPECT_TRUE(sm_or.ok()) << sm_or.status().ToString();
  if (!sm_or.ok()) return "reopen-failed";
  auto sm = std::move(*sm_or);
  std::ostringstream state;
  for (const Oid& oid : out.attempted) {
    auto read = sm->objects()->Read(oid);
    state << oid.ToString() << "="
          << (read.ok() ? std::to_string(read->size()) : "gone") << ";";
  }
  // Acknowledged commits must additionally hold their exact values.
  for (const auto& [oid, value] : out.committed) {
    auto read = sm->objects()->Read(oid);
    EXPECT_TRUE(read.ok()) << "acknowledged commit lost: " << oid.ToString();
    if (read.ok()) {
      EXPECT_EQ(*read, value);
    }
  }
  return state.str();
}

TEST_F(GroupCommitTest, RecoveryEquivalentWithGroupCommitOnAndOff) {
  const uint64_t seed = 0xB00C5ULL;
  auto& reg = FaultRegistry::Instance();
  struct Injection {
    const char* point;  // nullptr = clean run
    uint64_t nth;
    bool crash;
  };
  const Injection injections[] = {
      {nullptr, 0, false},
      {faults::kWalAppend, 5, false},
      {faults::kWalAppend, 20, false},
      {faults::kWalFlushWrite, 1, false},
      {faults::kWalFlushWrite, 4, false},
      {faults::kWalFlushWrite, 2, true},
      {faults::kWalFlushWrite, 7, true},
  };
  for (const Injection& inj : injections) {
    SCOPED_TRACE(std::string("injection=") +
                 (inj.point ? inj.point : "none") +
                 " nth=" + std::to_string(inj.nth) +
                 (inj.crash ? " crash" : " error"));
    std::string fingerprints[2];
    size_t committed_counts[2];
    for (int grouped = 0; grouped < 2; ++grouped) {
      TempDir dir;
      reg.DisarmAll();
      if (inj.point != nullptr) {
        if (inj.crash) {
          reg.ArmCrash(inj.point, inj.nth);
        } else {
          reg.ArmError(inj.point, Status::Code::kIoError, inj.nth,
                       /*one_shot=*/false);
        }
      }
      WalOptions wopts;
      wopts.group_commit = grouped == 1;
      EquivalenceOutcome out = RunSeededWorkload(dir.DbPath(), wopts, seed);
      reg.DisarmAll();
      committed_counts[grouped] = out.committed.size();
      fingerprints[grouped] = RecoveredFingerprint(dir.DbPath(), out);
    }
    EXPECT_EQ(committed_counts[0], committed_counts[1])
        << "commit acknowledgements diverged between modes";
    EXPECT_EQ(fingerprints[0], fingerprints[1])
        << "post-recovery state diverged between group-commit modes";
  }
}

}  // namespace
}  // namespace reach
