// Pluggable disk backend tests (docs/STORAGE.md "Async disk backend"):
// option parsing, write-run coalescing, per-backend batched roundtrips,
// buffer-pool readahead, the disk.backend.{submit,complete} fault points,
// and recovery equivalence — the on-disk state a crash leaves behind must
// recover identically no matter which backend replays it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_backend.h"
#include "storage/disk_manager.h"
#include "storage/storage_manager.h"
#include "storage/wal.h"
#include "testing/fault_points.h"
#include "testing/fault_registry.h"
#include "test_util.h"

namespace reach {
namespace {

using reach::testing::DurableLogCommit;
using reach::testing::TempDir;

// The backends every build can instantiate. kUring resolves to the async
// backend when io_uring is compiled out or the kernel refuses the ring, so
// requesting it is always safe; the roundtrip/equivalence tests sweep it
// regardless and exercise whatever it resolved to.
const DiskBackendKind kAllKinds[] = {
    DiskBackendKind::kPosix, DiskBackendKind::kAsync, DiskBackendKind::kUring};

const char* KindLabel(DiskBackendKind kind) {
  switch (kind) {
    case DiskBackendKind::kPosix:
      return "posix";
    case DiskBackendKind::kAsync:
      return "async";
    case DiskBackendKind::kUring:
      return "uring";
    default:
      return "default";
  }
}

TEST(DiskBackendOptionsTest, ParsesBackendAndThreads) {
  auto opts = DiskBackendOptions::Parse("backend=async,io_threads=3");
  EXPECT_EQ(opts.kind, DiskBackendKind::kAsync);
  EXPECT_EQ(opts.io_threads, 3u);

  opts = DiskBackendOptions::Parse("backend=uring");
  EXPECT_EQ(opts.kind, DiskBackendKind::kUring);

  opts = DiskBackendOptions::Parse("backend=posix;io_threads=1");
  EXPECT_EQ(opts.kind, DiskBackendKind::kPosix);
  EXPECT_EQ(opts.io_threads, 1u);
}

TEST(DiskBackendOptionsTest, IgnoresUnknownEntriesAndDefaults) {
  // Shares REACH_STORAGE with the buffer pool's shards=<N> knob.
  auto opts = DiskBackendOptions::Parse("shards=8,backend=async,group=on");
  EXPECT_EQ(opts.kind, DiskBackendKind::kAsync);

  opts = DiskBackendOptions::Parse(nullptr);
  EXPECT_EQ(opts.kind, DiskBackendKind::kDefault);
  EXPECT_EQ(opts.io_threads, 0u);

  opts = DiskBackendOptions::Parse("backend=bogus");
  EXPECT_EQ(opts.kind, DiskBackendKind::kDefault);
}

TEST(BuildWriteRunsTest, SortsAndCoalescesContiguousPages) {
  // Pages {5, 3, 4, 9} arrive unsorted: expect runs [3,4,5] and [9].
  char bufs[4][1];
  std::vector<std::pair<PageId, const char*>> batch = {
      {5, bufs[0]}, {3, bufs[1]}, {4, bufs[2]}, {9, bufs[3]}};
  auto runs = BuildWriteRuns(std::move(batch));
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].first_page, 3u);
  ASSERT_EQ(runs[0].iov.size(), 3u);
  EXPECT_EQ(runs[0].iov[0].iov_base, static_cast<void*>(bufs[1]));
  EXPECT_EQ(runs[0].iov[1].iov_base, static_cast<void*>(bufs[2]));
  EXPECT_EQ(runs[0].iov[2].iov_base, static_cast<void*>(bufs[0]));
  EXPECT_EQ(runs[1].first_page, 9u);
  ASSERT_EQ(runs[1].iov.size(), 1u);
  for (const auto& run : runs) {
    for (const auto& iov : run.iov) EXPECT_EQ(iov.iov_len, kPageSize);
  }
}

TEST(BuildWriteRunsTest, CapsRunLength) {
  char buf[1];
  std::vector<std::pair<PageId, const char*>> batch;
  for (PageId p = 0; p < 10; ++p) batch.emplace_back(p, buf);
  auto runs = BuildWriteRuns(std::move(batch), /*max_run_pages=*/4);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].first_page, 0u);
  EXPECT_EQ(runs[0].iov.size(), 4u);
  EXPECT_EQ(runs[1].first_page, 4u);
  EXPECT_EQ(runs[1].iov.size(), 4u);
  EXPECT_EQ(runs[2].first_page, 8u);
  EXPECT_EQ(runs[2].iov.size(), 2u);
}

TEST(BuildWriteRunsTest, EmptyBatchYieldsNoRuns) {
  EXPECT_TRUE(BuildWriteRuns({}).empty());
}

// Every backend must write and read back a scattered batch identically —
// including the coalesced multi-page runs and the single-request fast path.
TEST(DiskBackendRoundtripTest, BatchedWriteThenReadAcrossBackends) {
  for (DiskBackendKind kind : kAllKinds) {
    SCOPED_TRACE(KindLabel(kind));
    TempDir dir;
    auto dm_or = DiskManager::Open(dir.DbPath() + ".db", kind);
    ASSERT_TRUE(dm_or.ok());
    auto dm = std::move(*dm_or);
    if (kind == DiskBackendKind::kPosix) {
      EXPECT_STREQ(dm->backend_name(), "posix");
    } else if (kind == DiskBackendKind::kAsync) {
      EXPECT_STREQ(dm->backend_name(), "async");
    } else {
      // uring falls back to async when unavailable.
      EXPECT_STREQ(dm->backend_name(),
                   UringBackendAvailable() ? "uring" : "async");
    }

    constexpr PageId kPages = 24;
    for (PageId p = 0; p < kPages; ++p) {
      auto id = dm->AllocatePage();
      ASSERT_TRUE(id.ok());
      ASSERT_EQ(*id, p);
    }
    EXPECT_EQ(dm->num_pages(), kPages);

    // Distinct content per page; submit in shuffled order with a gap so
    // coalescing produces several runs.
    std::vector<std::string> images(kPages);
    std::vector<std::pair<PageId, const char*>> writes;
    for (PageId p = 0; p < kPages; ++p) {
      if (p == 11) continue;  // gap: page 11 stays zero
      images[p].assign(kPageSize, static_cast<char>('a' + (p % 26)));
      images[p][0] = static_cast<char>(p);
      writes.emplace_back(p, images[p].data());
    }
    // Shuffle deterministically: reverse order.
    std::reverse(writes.begin(), writes.end());
    ASSERT_TRUE(dm->WritePages(std::move(writes)).ok());

    std::vector<std::string> readback(kPages, std::string(kPageSize, 'x'));
    std::vector<PageReadRequest> reads;
    for (PageId p = 0; p < kPages; ++p) {
      reads.push_back({p, readback[p].data()});
    }
    ASSERT_TRUE(dm->ReadPages(reads).ok());
    for (PageId p = 0; p < kPages; ++p) {
      SCOPED_TRACE(p);
      if (p == 11) {
        EXPECT_EQ(readback[p], std::string(kPageSize, '\0'));
      } else {
        EXPECT_EQ(readback[p], images[p]);
      }
    }

    // Single-element batch exercises each backend's fast path.
    std::string one(kPageSize, 'Z');
    ASSERT_TRUE(dm->WritePages({{3, one.data()}}).ok());
    std::string got(kPageSize, '?');
    std::vector<PageReadRequest> single = {{3, got.data()}};
    ASSERT_TRUE(dm->ReadPages(single).ok());
    EXPECT_EQ(got, one);

    // Out-of-range member fails the whole batch.
    std::string oob(kPageSize, 'q');
    std::vector<PageReadRequest> bad = {{kPages + 5, oob.data()}};
    EXPECT_FALSE(dm->ReadPages(bad).ok());
    EXPECT_FALSE(dm->WritePages({{kPages + 5, oob.data()}}).ok());

    // Empty batches are no-ops (they still cross the fault points).
    EXPECT_TRUE(dm->ReadPages({}).ok());
    EXPECT_TRUE(dm->WritePages({}).ok());
  }
}

// The WAL's fused append path: whatever backend it resolves, appended
// records must be durable and readable; the uring backend reports
// fused_append and still produces a byte-identical log.
TEST(DiskBackendRoundtripTest, WalAppendSyncAcrossBackends) {
  for (DiskBackendKind kind : kAllKinds) {
    SCOPED_TRACE(KindLabel(kind));
    TempDir dir;
    WalOptions wopts;
    wopts.group_commit = true;
    auto wal_or = Wal::Open(dir.DbPath() + ".wal", wopts, kind);
    ASSERT_TRUE(wal_or.ok());
    auto wal = std::move(*wal_or);
    for (int i = 0; i < 20; ++i) {
      WalRecord rec;
      rec.type = WalRecordType::kPhysical;
      rec.txn = 1;
      rec.page = static_cast<PageId>(i + 1);
      rec.slot = 0;
      rec.after.flag = 1;
      rec.after.bytes = "record_" + std::to_string(i);
      ASSERT_TRUE(wal->Append(std::move(rec)).ok());
    }
    ASSERT_TRUE(wal->Flush().ok());
    EXPECT_EQ(wal->unflushed_records(), 0u);

    std::vector<WalRecord> records;
    ASSERT_TRUE(reach::testing::ScanRecords(wal.get(), &records).ok());
    ASSERT_EQ(records.size(), 20u);
    for (int i = 0; i < 20; ++i) {
      EXPECT_EQ(records[i].after.bytes, "record_" + std::to_string(i));
    }
  }
}

TEST(BufferPoolReadAheadTest, WarmsPoolAndServesHits) {
  TempDir dir;
  auto dm_or = DiskManager::Open(dir.DbPath() + ".db", DiskBackendKind::kAsync);
  ASSERT_TRUE(dm_or.ok());
  auto dm = std::move(*dm_or);
  constexpr PageId kPages = 16;
  std::vector<std::string> images(kPages);
  std::vector<std::pair<PageId, const char*>> writes;
  for (PageId p = 0; p < kPages; ++p) {
    ASSERT_TRUE(dm->AllocatePage().ok());
    images[p].assign(kPageSize, static_cast<char>('A' + p));
    writes.emplace_back(p, images[p].data());
  }
  ASSERT_TRUE(dm->WritePages(std::move(writes)).ok());

  BufferPool pool(dm.get(), /*pool_size=*/kPages + 4, /*shards=*/2);
  std::vector<PageId> all;
  for (PageId p = 0; p < kPages; ++p) all.push_back(p);
  ASSERT_TRUE(pool.ReadAhead(all).ok());
  const uint64_t misses_after_warm = pool.miss_count();

  for (PageId p = 0; p < kPages; ++p) {
    auto page = pool.FetchPage(p);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(std::memcmp((*page)->data(), images[p].data(), kPageSize), 0);
    ASSERT_TRUE(pool.UnpinPage(p, /*dirty=*/false).ok());
  }
  // Every post-warm fetch was a hit.
  EXPECT_EQ(pool.miss_count(), misses_after_warm);

  // Re-warming resident pages is a no-op, and unknown pages are skipped.
  ASSERT_TRUE(pool.ReadAhead(all).ok());
  ASSERT_TRUE(pool.ReadAhead({kPages + 100}).ok());
}

// Concurrent FetchPage during ReadAhead of the same pages: the io_pending
// handshake must hand every reader a fully-filled frame, never a frame
// whose fill is still in flight.
TEST(BufferPoolReadAheadTest, ConcurrentFetchDuringWarmup) {
  TempDir dir;
  auto dm_or = DiskManager::Open(dir.DbPath() + ".db", DiskBackendKind::kAsync);
  ASSERT_TRUE(dm_or.ok());
  auto dm = std::move(*dm_or);
  constexpr PageId kPages = 32;
  std::vector<std::string> images(kPages);
  std::vector<std::pair<PageId, const char*>> writes;
  for (PageId p = 0; p < kPages; ++p) {
    ASSERT_TRUE(dm->AllocatePage().ok());
    images[p].assign(kPageSize, static_cast<char>('a' + (p % 26)));
    writes.emplace_back(p, images[p].data());
  }
  ASSERT_TRUE(dm->WritePages(std::move(writes)).ok());

  BufferPool pool(dm.get(), /*pool_size=*/kPages + 4, /*shards=*/4);
  std::vector<PageId> all;
  for (PageId p = 0; p < kPages; ++p) all.push_back(p);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        PageId p = static_cast<PageId>((t * 13 + round * 7) % kPages);
        auto page = pool.FetchPage(p);
        if (!page.ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        if (std::memcmp((*page)->data(), images[p].data(), kPageSize) != 0) {
          mismatches.fetch_add(1);
        }
        if (!pool.UnpinPage(p, false).ok()) mismatches.fetch_add(1);
      }
    });
  }
  for (int round = 0; round < 20; ++round) {
    ASSERT_TRUE(pool.ReadAhead(all).ok());
  }
  for (auto& th : readers) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// AllocatePage/num_pages without the old mutexed getter: concurrent
// allocators must produce dense unique ids and a consistent final count.
TEST(DiskManagerTest, ConcurrentAllocateAndNumPages) {
  TempDir dir;
  auto dm_or = DiskManager::Open(dir.DbPath() + ".db");
  ASSERT_TRUE(dm_or.ok());
  auto dm = std::move(*dm_or);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 32;
  std::vector<std::vector<PageId>> got(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto id = dm->AllocatePage();
        if (!id.ok()) {
          failures.fetch_add(1);
          continue;
        }
        got[t].push_back(*id);
        // The getter must always trail or match the extension.
        if (dm->num_pages() < *id + 1) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(dm->num_pages(), kThreads * kPerThread);
  std::vector<bool> seen(kThreads * kPerThread, false);
  for (const auto& ids : got) {
    for (PageId id : ids) {
      ASSERT_LT(id, seen.size());
      EXPECT_FALSE(seen[id]) << "duplicate page id " << id;
      seen[id] = true;
    }
  }
}

class DiskBackendFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultRegistry::Instance().DisarmAll(); }
};

// An injected failure at submit or complete must surface as a Status (no
// crash, no partial success reported as OK), and the database must reopen
// cleanly once the fault clears.
TEST_F(DiskBackendFaultTest, SubmitAndCompleteFaultsDegradeGracefully) {
  for (const char* point :
       {faults::kDiskBackendSubmit, faults::kDiskBackendComplete}) {
    SCOPED_TRACE(point);
    TempDir dir;
    Oid oid;
    {
      auto sm_or = StorageManager::Open(dir.DbPath());
      ASSERT_TRUE(sm_or.ok());
      auto sm = std::move(*sm_or);
      ASSERT_TRUE(sm->LogBegin(1).ok());
      auto ins = sm->objects()->Insert(1, "survives the fault");
      ASSERT_TRUE(ins.ok());
      oid = *ins;
      ASSERT_TRUE(DurableLogCommit(sm.get(), 1).ok());

      auto& reg = FaultRegistry::Instance();
      reg.ArmError(point, Status::Code::kIoError, /*nth=*/1,
                   /*one_shot=*/false);
      EXPECT_FALSE(sm->Checkpoint().ok());
      EXPECT_GT(reg.FiredCount(point), 0u);
      reg.DisarmAll();
      // Cleared fault: the same checkpoint succeeds.
      EXPECT_TRUE(sm->Checkpoint().ok());
    }
    auto reopened = StorageManager::Open(dir.DbPath());
    ASSERT_TRUE(reopened.ok()) << (*reopened)->recovery_stats().committed_txns;
    auto body = (*reopened)->objects()->Read(oid);
    ASSERT_TRUE(body.ok());
    EXPECT_EQ(*body, "survives the fault");
  }
}

// Write a workload (committed work, an update, a delete, a loser txn, plus
// a mid-run injected I/O failure), crash without checkpoint, then recover
// the identical image under every backend. The backend is an I/O strategy;
// it must be invisible to ARIES.
TEST_F(DiskBackendFaultTest, RecoveryEquivalentAcrossBackends) {
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
          1, "payload_" + std::to_string(i) + std::string(i * 17 % 300, 'b'));
      ASSERT_TRUE(oid.ok());
      committed.push_back(*oid);
    }
    ASSERT_TRUE(sm->objects()->Update(1, committed[5], "rewritten").ok());
    ASSERT_TRUE(sm->objects()->Delete(1, committed[9]).ok());
    ASSERT_TRUE(DurableLogCommit(sm.get(), 1).ok());

    // A flush attempt dies mid-run; the workload shrugs it off and the
    // surviving WAL still carries everything recovery needs.
    auto& reg = FaultRegistry::Instance();
    reg.ArmError(faults::kDiskBackendSubmit, Status::Code::kIoError);
    EXPECT_FALSE(sm->buffer_pool()->FlushAll().ok());
    reg.DisarmAll();

    ASSERT_TRUE(sm->LogBegin(2).ok());
    auto l = sm->objects()->Insert(2, "loser");
    ASSERT_TRUE(l.ok());
    loser = *l;
    ASSERT_TRUE(sm->buffer_pool()->FlushAll().ok());
    // Crash: destroy without checkpoint.
  }

  auto clone = [&](const std::string& to) {
    std::filesystem::copy_file(dir.DbPath("origin") + ".db",
                               dir.DbPath(to) + ".db");
    std::filesystem::copy_file(dir.DbPath("origin") + ".wal",
                               dir.DbPath(to) + ".wal");
  };

  struct Recovered {
    std::unique_ptr<StorageManager> sm;
  };
  std::vector<Recovered> recovered;
  for (DiskBackendKind kind : kAllKinds) {
    SCOPED_TRACE(KindLabel(kind));
    const std::string tag = KindLabel(kind);
    clone(tag);
    StorageOptions opts;
    opts.buffer_pool_pages = 8;
    opts.disk_backend = kind;
    auto sm_or = StorageManager::Open(dir.DbPath(tag), opts);
    ASSERT_TRUE(sm_or.ok()) << sm_or.status().ToString();
    recovered.push_back({std::move(*sm_or)});
  }

  auto scan0 = recovered[0].sm->objects()->ScanAll();
  ASSERT_TRUE(scan0.ok());
  for (size_t i = 1; i < recovered.size(); ++i) {
    SCOPED_TRACE(KindLabel(kAllKinds[i]));
    EXPECT_EQ(recovered[i].sm->recovery_stats().committed_txns,
              recovered[0].sm->recovery_stats().committed_txns);
    EXPECT_EQ(recovered[i].sm->recovery_stats().loser_txns,
              recovered[0].sm->recovery_stats().loser_txns);
    auto scan = recovered[i].sm->objects()->ScanAll();
    ASSERT_TRUE(scan.ok());
    EXPECT_EQ(*scan, *scan0) << "backend changed the recovered OID set";
    for (const Oid& oid : *scan0) {
      auto b0 = recovered[0].sm->objects()->Read(oid);
      auto bi = recovered[i].sm->objects()->Read(oid);
      ASSERT_TRUE(b0.ok());
      ASSERT_TRUE(bi.ok());
      EXPECT_EQ(*bi, *b0) << "divergent contents at " << oid.ToString();
    }
  }
  for (auto& r : recovered) {
    EXPECT_TRUE(r.sm->objects()->Read(loser).status().IsNotFound());
    EXPECT_EQ(*r.sm->objects()->Read(committed[5]), "rewritten");
    EXPECT_TRUE(r.sm->objects()->Read(committed[9]).status().IsNotFound());
  }
}

// Striped page locking (satellite): readers of other pages proceed while a
// writer holds one page's stripe. Smoke-level: hammer disjoint reads and
// writes concurrently and demand zero failures and intact contents.
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

}  // namespace
}  // namespace reach
