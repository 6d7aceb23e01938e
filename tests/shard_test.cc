// Sharded buffer pool and striped object store (docs/STORAGE.md):
// REACH_STORAGE / REACH_WAL option parsing (unknown entries are errors),
// shard slicing, hit/miss accounting summed over shards, cross-shard
// eviction under fault injection, concurrent Fetch/Unpin/Flush across
// shards and the lock-free page table under eviction churn (the TSan
// matrix runs this suite), and a
// recovery-equivalence sweep proving the shard count is invisible to ARIES
// recovery: the same WAL replayed into pools with different shard counts
// must yield identical object state.
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

TEST(BufferPoolOptionsTest, ParsesShardsFromSpec) {
  auto o = BufferPoolOptions::Parse(nullptr);
  ASSERT_TRUE(o.ok());
  EXPECT_EQ(o->shards, 0u);
  EXPECT_EQ(BufferPoolOptions::Parse("")->shards, 0u);
  EXPECT_EQ(BufferPoolOptions::Parse("shards=4")->shards, 4u);
  EXPECT_EQ(BufferPoolOptions::Parse(";shards=2,")->shards, 2u);
}

TEST(BufferPoolOptionsTest, RejectsUnknownEntriesAndMalformedNumbers) {
  for (const char* bad :
       {"bogus", "shards=16,future=1", "future=1;shards=2", "backend=uring",
        "writeback=on", "writeback_watermark=30", "io_threads=2", "shards=",
        "shards=abc", "shards=-1", "shards=4x", "shards=99999999999"}) {
    SCOPED_TRACE(bad);
    auto r = BufferPoolOptions::Parse(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
  }
}

TEST(BufferPoolOptionsTest, ResolveShardsAutoIsPowerOfTwo) {
  // Explicit requests pass through untouched, including non-powers of two.
  EXPECT_EQ(BufferPoolOptions::ResolveShards(3), 3u);
  EXPECT_EQ(BufferPoolOptions::ResolveShards(16), 16u);
  size_t n = BufferPoolOptions::ResolveShards(0);
  EXPECT_GE(n, 1u);
  EXPECT_EQ(n & (n - 1), 0u) << "auto shard count must be a power of two";
}

TEST(WalOptionsTest, ParsesGroupCommitKnobs) {
  auto o = WalOptions::Parse(
      "group=off;max_batch_bytes=4096,max_batch_delay_us=50");
  ASSERT_TRUE(o.ok()) << o.status().ToString();
  EXPECT_FALSE(o->group_commit);
  EXPECT_EQ(o->max_batch_bytes, 4096u);
  EXPECT_EQ(o->max_batch_delay_us, 50u);
  EXPECT_TRUE(WalOptions::Parse(nullptr)->group_commit);
  EXPECT_TRUE(WalOptions::Parse("on")->group_commit);
  EXPECT_FALSE(WalOptions::Parse("off")->group_commit);
  EXPECT_TRUE(WalOptions::Parse("group=true")->group_commit);
}

TEST(WalOptionsTest, RejectsUnknownEntriesAndMalformedNumbers) {
  for (const char* bad :
       {"adaptive", "adaptive=on", "group=on,adaptive", "future=1",
        "group=maybe", "on=1", "max_batch_bytes=", "max_batch_delay_us=fast",
        "max_batch_delay_us=5000000000"}) {
    SCOPED_TRACE(bad);
    auto r = WalOptions::Parse(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
  }
}

class ShardedPoolTest : public ::testing::Test {
 protected:
  void Open(size_t pool_size, size_t shards) {
    pool_.reset();
    auto dm = DiskManager::Open(dir_.DbPath() + ".db");
    ASSERT_TRUE(dm.ok());
    disk_ = std::move(*dm);
    pool_ = std::make_unique<BufferPool>(disk_.get(), pool_size, shards);
  }
  TempDir dir_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
};

TEST_F(ShardedPoolTest, ShardCountClampedToFrameBudget) {
  Open(4, 16);
  EXPECT_EQ(pool_->shard_count(), 4u);
  EXPECT_EQ(pool_->pool_size(), 4u);
}

TEST_F(ShardedPoolTest, FrameBudgetPreservedAcrossShardCounts) {
  for (size_t shards : {1u, 2u, 4u}) {
    Open(10, shards);
    EXPECT_EQ(pool_->shard_count(), shards);
    EXPECT_EQ(pool_->pool_size(), 10u) << "shards=" << shards;
  }
}

TEST_F(ShardedPoolTest, PagesLandOnDistinctShardsAndSurviveEviction) {
  // 8 frames over 4 shards, 24 pages: every shard must evict, and each
  // page must round-trip its contents through its own shard's LRU.
  Open(8, 4);
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

TEST_F(ShardedPoolTest, HitMissAccountingSumsOverShards) {
  Open(8, 4);
  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) {
    auto page = pool_->NewPage();
    ASSERT_TRUE(page.ok());
    ids.push_back((*page)->page_id());
    ASSERT_TRUE(pool_->UnpinPage(ids.back(), true).ok());
  }
  EXPECT_EQ(pool_->hit_count(), 0u);  // NewPage is neither hit nor miss
  EXPECT_EQ(pool_->miss_count(), 0u);
  for (PageId id : ids) {  // all cached: 8 hits spread over 4 shards
    ASSERT_TRUE(pool_->FetchPage(id).ok());
    ASSERT_TRUE(pool_->UnpinPage(id, false).ok());
  }
  EXPECT_EQ(pool_->hit_count(), 8u);
  EXPECT_EQ(pool_->miss_count(), 0u);
  // Evict everything by cycling 16 fresh pages through, then re-fetch one
  // old page per shard: 4 misses.
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

TEST_F(ShardedPoolTest, CrossShardEvictionFaultSurfacesCleanly) {
  Open(4, 4);  // every eviction must hit the dirty path
  auto& reg = FaultRegistry::Instance();
  reg.DisarmAll();
  std::vector<PageId> ids;
  for (int i = 0; i < 4; ++i) {
    auto page = pool_->NewPage();
    ASSERT_TRUE(page.ok());
    ids.push_back((*page)->page_id());
    ASSERT_TRUE(pool_->UnpinPage(ids.back(), true).ok());
  }
  // Every further NewPage must evict a dirty page from its target shard;
  // the armed fault makes each such writeback fail until disarmed.
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

TEST_F(ShardedPoolTest, ConcurrentFetchUnpinFlushAcrossShards) {
  // TSan target: readers hammer pages spread over all shards while a
  // flusher thread runs FlushPage/FlushAll against the same shards.
  Open(16, 4);
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
          // Busy (all frames of the shard pinned momentarily) is the only
          // acceptable failure under pure contention.
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

TEST_F(ShardedPoolTest, LockFreeTableSurvivesEvictChurnAndRebuilds) {
  // Torture for the open-addressing table: a single-shard pool far smaller
  // than its working set erases a mapping (tombstone) on every eviction, so
  // the probe chains fill with tombstones and force periodic same-size
  // rebuilds while readers probe lock-free.
  Open(8, 1);
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
  // Readers take the store's shared operation lock and only contend on
  // buffer pool shards; a writer interleaves inserts and updates. TSan
  // target for the striped ObjectStore.
  TempDir dir;
  StorageOptions opts;
  opts.bufferpool_shards = 4;
  auto sm_or = StorageManager::Open(dir.DbPath(), opts);
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

// Replay the same WAL into pools with different shard counts; recovery and
// the resulting object state must be identical — sharding is an in-memory
// layout choice, invisible to ARIES.
TEST(ShardRecoveryEquivalenceTest, SameWalReplaysIdenticallyAtShardCounts) {
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
  clone("one");
  clone("four");

  auto recover = [&](const std::string& base, size_t shards) {
    StorageOptions opts;
    opts.buffer_pool_pages = 8;
    opts.bufferpool_shards = shards;
    return StorageManager::Open(dir.DbPath(base), opts);
  };
  auto sm1_or = recover("one", 1);
  auto sm4_or = recover("four", 4);
  ASSERT_TRUE(sm1_or.ok()) << sm1_or.status().ToString();
  ASSERT_TRUE(sm4_or.ok()) << sm4_or.status().ToString();
  auto& sm1 = *sm1_or;
  auto& sm4 = *sm4_or;
  EXPECT_EQ(sm1->buffer_pool()->shard_count(), 1u);
  EXPECT_EQ(sm4->buffer_pool()->shard_count(), 4u);
  EXPECT_EQ(sm1->recovery_stats().committed_txns,
            sm4->recovery_stats().committed_txns);
  EXPECT_EQ(sm1->recovery_stats().loser_txns,
            sm4->recovery_stats().loser_txns);

  auto scan1 = sm1->objects()->ScanAll();
  auto scan4 = sm4->objects()->ScanAll();
  ASSERT_TRUE(scan1.ok());
  ASSERT_TRUE(scan4.ok());
  EXPECT_EQ(*scan1, *scan4) << "shard count changed the recovered OID set";
  for (const Oid& oid : *scan1) {
    auto b1 = sm1->objects()->Read(oid);
    auto b4 = sm4->objects()->Read(oid);
    ASSERT_TRUE(b1.ok());
    ASSERT_TRUE(b4.ok());
    EXPECT_EQ(*b1, *b4) << "divergent contents at " << oid.ToString();
  }
  EXPECT_TRUE(sm1->objects()->Read(loser).status().IsNotFound());
  EXPECT_TRUE(sm4->objects()->Read(loser).status().IsNotFound());
  EXPECT_EQ(*sm1->objects()->Read(committed[3]), "rewritten");
  EXPECT_EQ(*sm4->objects()->Read(committed[3]), "rewritten");
}

}  // namespace
}  // namespace reach
