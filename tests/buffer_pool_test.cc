// Buffer pool and object store under concurrency (docs/STORAGE.md): the
// frame budget, eviction under churn, hit/miss accounting, the
// evict-writeback fault, concurrent Fetch/Unpin/Flush and the lock-free
// page table under eviction churn (the TSan job runs this suite), readers
// beside writers on the object store, and a recovery-equivalence check
// proving the pool size is invisible to ARIES recovery: the same WAL
// replayed into pools of different sizes must yield identical object
// state.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/storage_manager.h"
#include "test_util.h"
#include "testing/fault_points.h"
#include "testing/fault_registry.h"

namespace reach {
namespace {

using reach::testing::DurableLogCommit;
using reach::testing::TempDir;

class PoolTest : public ::testing::Test {
 protected:
  void Open(size_t pool_size) {
    pool_.reset();
    auto dm = DiskManager::Open(dir_.DbPath() + ".db");
    ASSERT_TRUE(dm.ok());
    disk_ = std::move(*dm);
    pool_ = std::make_unique<BufferPool>(disk_.get(), pool_size);
  }
  TempDir dir_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
};

TEST_F(PoolTest, FrameBudgetIsExact) {
  Open(10);
  EXPECT_EQ(pool_->pool_size(), 10u);
  std::vector<PageId> ids;
  for (int i = 0; i < 10; ++i) {
    auto page = pool_->NewPage();
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    ids.push_back((*page)->page_id());  // keep pinned
  }
  auto extra = pool_->NewPage();
  ASSERT_FALSE(extra.ok());
  EXPECT_TRUE(extra.status().IsBusy()) << extra.status().ToString();
  for (PageId id : ids) ASSERT_TRUE(pool_->UnpinPage(id, true).ok());
}

TEST_F(PoolTest, PagesSurviveEvictionChurn) {
  // 8 frames, 24 pages: every page must round-trip its contents through
  // eviction and writeback.
  Open(8);
  std::vector<PageId> ids;
  for (int i = 0; i < 24; ++i) {
    auto page = pool_->NewPage();
    ASSERT_TRUE(page.ok());
    (*page)->data()[0] = static_cast<char>('A' + i);
    ids.push_back((*page)->page_id());
    ASSERT_TRUE(pool_->UnpinPage(ids.back(), true).ok());
  }
  for (int i = 0; i < 24; ++i) {
    auto page = pool_->FetchPage(ids[i]);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ((*page)->data()[0], static_cast<char>('A' + i));
    ASSERT_TRUE(pool_->UnpinPage(ids[i], false).ok());
  }
}

TEST_F(PoolTest, HitMissAccounting) {
  Open(8);
  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) {
    auto page = pool_->NewPage();
    ASSERT_TRUE(page.ok());
    ids.push_back((*page)->page_id());
    ASSERT_TRUE(pool_->UnpinPage(ids.back(), true).ok());
  }
  EXPECT_EQ(pool_->hit_count(), 0u);  // NewPage is neither hit nor miss
  EXPECT_EQ(pool_->miss_count(), 0u);
  for (PageId id : ids) {  // all cached: 8 hits
    ASSERT_TRUE(pool_->FetchPage(id).ok());
    ASSERT_TRUE(pool_->UnpinPage(id, false).ok());
  }
  EXPECT_EQ(pool_->hit_count(), 8u);
  EXPECT_EQ(pool_->miss_count(), 0u);
  // Evict everything by cycling 16 fresh pages through, then re-fetch four
  // old pages: 4 misses.
  for (int i = 0; i < 16; ++i) {
    auto page = pool_->NewPage();
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE(pool_->UnpinPage((*page)->page_id(), true).ok());
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pool_->FetchPage(ids[i]).ok());
    ASSERT_TRUE(pool_->UnpinPage(ids[i], false).ok());
  }
  EXPECT_EQ(pool_->hit_count(), 8u);
  EXPECT_EQ(pool_->miss_count(), 4u);
}

TEST_F(PoolTest, EvictionWritebackFaultSurfacesCleanly) {
  Open(4);  // every eviction must hit the dirty path
  auto& reg = FaultRegistry::Instance();
  reg.DisarmAll();
  std::vector<PageId> ids;
  for (int i = 0; i < 4; ++i) {
    auto page = pool_->NewPage();
    ASSERT_TRUE(page.ok());
    ids.push_back((*page)->page_id());
    ASSERT_TRUE(pool_->UnpinPage(ids.back(), true).ok());
  }
  // Every further NewPage must evict a dirty page; the armed fault makes
  // each such writeback fail until disarmed.
  reg.ArmError(faults::kBufEvictWriteback, Status::Code::kIoError, /*nth=*/1,
               /*one_shot=*/false);
  for (int i = 0; i < 4; ++i) {
    auto page = pool_->NewPage();
    EXPECT_FALSE(page.ok());
    EXPECT_TRUE(page.status().IsIoError()) << page.status().ToString();
  }
  reg.DisarmAll();
  // Disarmed: eviction proceeds and the evicted pages' contents survived
  // on disk via the (now succeeding) writeback.
  auto page = pool_->NewPage();
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE(pool_->UnpinPage((*page)->page_id(), true).ok());
  for (PageId id : ids) {
    auto old_page = pool_->FetchPage(id);
    ASSERT_TRUE(old_page.ok());
    ASSERT_TRUE(pool_->UnpinPage(id, false).ok());
  }
}

TEST_F(PoolTest, ConcurrentFetchUnpinFlush) {
  // TSan target: readers hammer pages (3x the frame count, so misses and
  // evictions interleave with hits) while a flusher thread runs
  // FlushPage/FlushAll against the same frames.
  Open(16);
  constexpr int kPages = 48;
  std::vector<PageId> ids;
  for (int i = 0; i < kPages; ++i) {
    auto page = pool_->NewPage();
    ASSERT_TRUE(page.ok());
    (*page)->data()[0] = 'i';
    ids.push_back((*page)->page_id());
    ASSERT_TRUE(pool_->UnpinPage(ids.back(), true).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 400; ++round) {
        PageId id = ids[(t * 131 + round) % kPages];
        auto page = pool_->FetchPage(id);
        if (!page.ok()) {
          // Busy (all frames pinned momentarily) is the only acceptable
          // failure under pure contention.
          if (!page.status().IsBusy()) failures.fetch_add(1);
          continue;
        }
        if ((*page)->data()[0] != 'i') failures.fetch_add(1);
        if (!pool_->UnpinPage(id, round % 8 == 0).ok()) failures.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&] {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      if (!pool_->FlushPage(ids[i++ % kPages]).ok()) failures.fetch_add(1);
      if (i % 16 == 0 && !pool_->FlushAll().ok()) failures.fetch_add(1);
    }
  });
  for (int t = 0; t < 4; ++t) threads[t].join();
  stop.store(true, std::memory_order_relaxed);
  threads.back().join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(PoolTest, LockFreeTableSurvivesEvictChurnAndRebuilds) {
  // Torture for the open-addressing table: a pool far smaller than its
  // working set erases a mapping (tombstone) on every eviction, so the
  // probe chains fill with tombstones and force periodic same-size
  // rebuilds while readers probe lock-free.
  Open(8);
  std::vector<PageId> ids;
  for (int i = 0; i < 64; ++i) {
    auto page = pool_->NewPage();
    ASSERT_TRUE(page.ok());
    (*page)->data()[0] = static_cast<char>('A' + i % 26);
    ids.push_back((*page)->page_id());
    ASSERT_TRUE(pool_->UnpinPage(ids.back(), true).ok());
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 500; ++round) {
        size_t i = (t * 17 + round * 7) % ids.size();
        auto page = pool_->FetchPage(ids[i]);
        if (!page.ok()) {
          if (!page.status().IsBusy()) failures.fetch_add(1);
          continue;
        }
        if ((*page)->data()[0] != static_cast<char>('A' + i % 26)) {
          failures.fetch_add(1);
        }
        if (!pool_->UnpinPage(ids[i], round % 8 == 0).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  // Every page still round-trips after the churn.
  for (size_t i = 0; i < ids.size(); ++i) {
    auto page = pool_->FetchPage(ids[i]);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    EXPECT_EQ((*page)->data()[0], static_cast<char>('A' + i % 26));
    ASSERT_TRUE(pool_->UnpinPage(ids[i], false).ok());
  }
}

TEST(ShardedStoreTest, ConcurrentReadersWithWriter) {
  // Readers take the store's shared operation lock and per-page locks; a
  // writer interleaves inserts and updates. TSan target for the
  // ObjectStore's page locks and free-space map.
  TempDir dir;
  auto sm_or = StorageManager::Open(dir.DbPath());
  ASSERT_TRUE(sm_or.ok());
  auto sm = std::move(*sm_or);
  ObjectStore* store = sm->objects();

  ASSERT_TRUE(sm->LogBegin(1).ok());
  std::vector<Oid> oids;
  for (int i = 0; i < 64; ++i) {
    auto oid = store->Insert(1, "obj_" + std::to_string(i) +
                                    std::string(100, 'x'));
    ASSERT_TRUE(oid.ok());
    oids.push_back(*oid);
  }
  ASSERT_TRUE(DurableLogCommit(sm.get(), 1).ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 200; ++round) {
        const Oid& oid = oids[(t * 37 + round) % oids.size()];
        auto body = store->Read(oid);
        if (!body.ok() ||
            body->compare(0, 4, "obj_") != 0) {
          failures.fetch_add(1);
        }
        if (!store->Exists(oid)) failures.fetch_add(1);
        if (round % 50 == 0 && !store->ScanAll().ok()) failures.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 100; ++i) {
      TxnId txn = static_cast<TxnId>(100 + i);
      if (!sm->LogBegin(txn).ok()) return;
      auto oid = store->Insert(txn, "obj_w" + std::string(50, 'w'));
      if (!oid.ok()) failures.fetch_add(1);
      if (!store->Update(txn, oids[i % oids.size()],
                         "obj_u" + std::string(120, 'u'))
               .ok()) {
        failures.fetch_add(1);
      }
      if (!DurableLogCommit(sm.get(), txn).ok()) failures.fetch_add(1);
    }
  });
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// Striped page locking: readers of other pages proceed while a writer holds
// one page's stripe. Smoke-level: hammer disjoint reads and writes
// concurrently and demand zero failures and intact contents.
TEST(ObjectStoreStripedLockTest, ReadersProceedDuringDisjointWrites) {
  TempDir dir;
  auto sm_or = StorageManager::Open(dir.DbPath());
  ASSERT_TRUE(sm_or.ok());
  auto sm = std::move(*sm_or);
  ASSERT_TRUE(sm->LogBegin(1).ok());
  std::vector<Oid> oids;
  std::string payload(600, 's');  // whole cells: fast-path eligible
  for (int i = 0; i < 64; ++i) {
    auto oid = sm->objects()->Insert(1, payload);
    ASSERT_TRUE(oid.ok());
    oids.push_back(*oid);
  }
  ASSERT_TRUE(DurableLogCommit(sm.get(), 1).ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const Oid& oid = oids[(t * 23 + i) % oids.size()];
        auto body = sm->objects()->Read(oid);
        if (!body.ok() || body->size() != payload.size()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 100; ++i) {
      TxnId txn = static_cast<TxnId>(10 + i);
      if (!sm->LogBegin(txn).ok()) return;
      if (!sm->objects()->Update(txn, oids[i % oids.size()], payload).ok()) {
        failures.fetch_add(1);
      }
      if (!DurableLogCommit(sm.get(), txn).ok()) failures.fetch_add(1);
    }
  });
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// Replay the same WAL into pools of 8 and 256 frames; recovery and the
// resulting object state must be identical — the pool size changes only
// which pages are evicted during redo/undo, never what ARIES restores.
TEST(RecoveryEquivalenceTest, SameWalReplaysIdenticallyAtPoolSizes) {
  TempDir dir;
  std::vector<Oid> committed;
  Oid loser;
  {
    StorageOptions opts;
    opts.buffer_pool_pages = 8;  // eviction traffic while the log is live
    auto sm_or = StorageManager::Open(dir.DbPath("origin"), opts);
    ASSERT_TRUE(sm_or.ok());
    auto sm = std::move(*sm_or);
    ASSERT_TRUE(sm->LogBegin(1).ok());
    for (int i = 0; i < 40; ++i) {
      auto oid = sm->objects()->Insert(
          1, "payload_" + std::to_string(i) + std::string(i * 13 % 300, 'p'));
      ASSERT_TRUE(oid.ok());
      committed.push_back(*oid);
    }
    // Update a few so redo has non-trivial work; delete one.
    ASSERT_TRUE(sm->objects()->Update(1, committed[3], "rewritten").ok());
    ASSERT_TRUE(sm->objects()->Delete(1, committed[7]).ok());
    ASSERT_TRUE(DurableLogCommit(sm.get(), 1).ok());
    // A loser transaction recovery must undo.
    ASSERT_TRUE(sm->LogBegin(2).ok());
    auto l = sm->objects()->Insert(2, "loser");
    ASSERT_TRUE(l.ok());
    loser = *l;
    ASSERT_TRUE(sm->buffer_pool()->FlushAll().ok());
    // Crash: destroy without checkpoint; the WAL carries everything.
  }

  auto clone = [&](const std::string& to) {
    std::filesystem::copy_file(dir.DbPath("origin") + ".db",
                               dir.DbPath(to) + ".db");
    std::filesystem::copy_file(dir.DbPath("origin") + ".wal",
                               dir.DbPath(to) + ".wal");
  };
  clone("small");
  clone("large");

  auto recover = [&](const std::string& base, size_t frames) {
    StorageOptions opts;
    opts.buffer_pool_pages = frames;
    return StorageManager::Open(dir.DbPath(base), opts);
  };
  auto small_or = recover("small", 8);
  auto large_or = recover("large", 256);
  ASSERT_TRUE(small_or.ok()) << small_or.status().ToString();
  ASSERT_TRUE(large_or.ok()) << large_or.status().ToString();
  auto& small = *small_or;
  auto& large = *large_or;
  EXPECT_EQ(small->buffer_pool()->pool_size(), 8u);
  EXPECT_EQ(large->buffer_pool()->pool_size(), 256u);
  EXPECT_EQ(small->recovery_stats().committed_txns,
            large->recovery_stats().committed_txns);
  EXPECT_EQ(small->recovery_stats().loser_txns,
            large->recovery_stats().loser_txns);

  auto scan_small = small->objects()->ScanAll();
  auto scan_large = large->objects()->ScanAll();
  ASSERT_TRUE(scan_small.ok());
  ASSERT_TRUE(scan_large.ok());
  EXPECT_EQ(*scan_small, *scan_large)
      << "pool size changed the recovered OID set";
  for (const Oid& oid : *scan_small) {
    auto b_small = small->objects()->Read(oid);
    auto b_large = large->objects()->Read(oid);
    ASSERT_TRUE(b_small.ok());
    ASSERT_TRUE(b_large.ok());
    EXPECT_EQ(*b_small, *b_large) << "divergent contents at " << oid.ToString();
  }
  EXPECT_TRUE(small->objects()->Read(loser).status().IsNotFound());
  EXPECT_TRUE(large->objects()->Read(loser).status().IsNotFound());
  EXPECT_EQ(*small->objects()->Read(committed[3]), "rewritten");
  EXPECT_EQ(*large->objects()->Read(committed[3]), "rewritten");
}

}  // namespace
}  // namespace reach
