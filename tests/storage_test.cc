#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "oodb/database.h"
#include "oodb/session.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/object_store.h"
#include "storage/storage_manager.h"
#include "storage/wal.h"
#include "testing/fault_points.h"
#include "testing/fault_registry.h"
#include "test_util.h"

namespace reach {
namespace {

using reach::testing::DurableLogCommit;
using reach::testing::TempDir;

TEST(DiskManagerTest, AllocateReadWrite) {
  TempDir dir;
  auto dm = DiskManager::Open(dir.DbPath() + ".db");
  ASSERT_TRUE(dm.ok());
  EXPECT_EQ((*dm)->num_pages(), 0u);
  auto p0 = (*dm)->AllocatePage();
  ASSERT_TRUE(p0.ok());
  EXPECT_EQ(*p0, 0u);
  char data[kPageSize];
  std::fill(data, data + kPageSize, 'x');
  ASSERT_TRUE((*dm)->WritePage(0, data).ok());
  char in[kPageSize];
  ASSERT_TRUE((*dm)->ReadPage(0, in).ok());
  EXPECT_EQ(memcmp(data, in, kPageSize), 0);
}

TEST(DiskManagerTest, OutOfRangeAccessRejected) {
  TempDir dir;
  auto dm = DiskManager::Open(dir.DbPath() + ".db");
  char buf[kPageSize];
  EXPECT_TRUE((*dm)->ReadPage(3, buf).IsOutOfRange());
  EXPECT_TRUE((*dm)->WritePage(3, buf).IsOutOfRange());
}

TEST(DiskManagerTest, ReopenPreservesPages) {
  TempDir dir;
  std::string path = dir.DbPath() + ".db";
  {
    auto dm = DiskManager::Open(path);
    ASSERT_TRUE((*dm)->AllocatePage().ok());
    ASSERT_TRUE((*dm)->AllocatePage().ok());
    char data[kPageSize] = {'q'};
    ASSERT_TRUE((*dm)->WritePage(1, data).ok());
    ASSERT_TRUE((*dm)->Sync().ok());
  }
  auto dm = DiskManager::Open(path);
  ASSERT_TRUE(dm.ok());
  EXPECT_EQ((*dm)->num_pages(), 2u);
  char in[kPageSize];
  ASSERT_TRUE((*dm)->ReadPage(1, in).ok());
  EXPECT_EQ(in[0], 'q');
}

// Batched page I/O: a scattered, reverse-ordered write batch and a read
// batch round-trip every page, including a page the batch skipped and a
// one-page batch.
TEST(DiskManagerTest, BatchedWriteThenRead) {
  TempDir dir;
  auto dm_or = DiskManager::Open(dir.DbPath() + ".db");
  ASSERT_TRUE(dm_or.ok());
  auto dm = std::move(*dm_or);
  constexpr PageId kPages = 24;
  for (PageId p = 0; p < kPages; ++p) {
    auto id = dm->AllocatePage();
    ASSERT_TRUE(id.ok());
    ASSERT_EQ(*id, p);
  }
  std::vector<std::string> images(kPages);
  std::vector<std::pair<PageId, const char*>> writes;
  for (PageId p = 0; p < kPages; ++p) {
    if (p == 11) continue;  // gap: page 11 stays zero
    images[p].assign(kPageSize, static_cast<char>('a' + (p % 26)));
    images[p][0] = static_cast<char>(p);
    writes.emplace_back(p, images[p].data());
  }
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

  std::string one(kPageSize, 'Z');
  ASSERT_TRUE(dm->WritePages({{3, one.data()}}).ok());
  std::string got(kPageSize, '?');
  std::vector<PageReadRequest> single = {{3, got.data()}};
  ASSERT_TRUE(dm->ReadPages(single).ok());
  EXPECT_EQ(got, one);

  // Empty batches are no-ops (they still cross the fault points).
  EXPECT_TRUE(dm->ReadPages({}).ok());
  EXPECT_TRUE(dm->WritePages({}).ok());
}

// One member past the end fails the whole batch with OutOfRange before any
// page is touched: no in-range member of a write batch reaches the file,
// and no in-range member of a read batch is filled.
TEST(DiskManagerTest, BatchWithOutOfRangeMemberFailsWhole) {
  TempDir dir;
  auto dm_or = DiskManager::Open(dir.DbPath() + ".db");
  ASSERT_TRUE(dm_or.ok());
  auto dm = std::move(*dm_or);
  constexpr PageId kPages = 4;
  for (PageId p = 0; p < kPages; ++p) ASSERT_TRUE(dm->AllocatePage().ok());

  std::string image(kPageSize, 'w');
  std::vector<std::pair<PageId, const char*>> writes = {
      {0, image.data()}, {kPages + 2, image.data()}, {2, image.data()}};
  EXPECT_TRUE(dm->WritePages(std::move(writes)).IsOutOfRange());
  EXPECT_EQ(dm->num_pages(), kPages);
  for (PageId p = 0; p < kPages; ++p) {
    std::string got(kPageSize, '?');
    ASSERT_TRUE(dm->ReadPage(p, got.data()).ok());
    EXPECT_EQ(got.find_first_not_of('\0'), std::string::npos)
        << "page " << p << " was written";
  }

  std::string a(kPageSize, '?'), b(kPageSize, '?');
  std::vector<PageReadRequest> reads = {{1, a.data()}, {kPages, b.data()}};
  EXPECT_TRUE(dm->ReadPages(reads).IsOutOfRange());
  EXPECT_EQ(a.find_first_not_of('?'), std::string::npos) << "page 1 was read";
}

// Concurrent allocators must produce dense unique ids, and num_pages must
// never run ahead of the extension it reports.
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

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dm = DiskManager::Open(dir_.DbPath() + ".db");
    ASSERT_TRUE(dm.ok());
    disk_ = std::move(*dm);
    pool_ = std::make_unique<BufferPool>(disk_.get(), 4);
  }
  TempDir dir_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
};

TEST_F(BufferPoolTest, NewFetchUnpin) {
  auto page = pool_->NewPage();
  ASSERT_TRUE(page.ok());
  PageId id = (*page)->page_id();
  (*page)->data()[0] = 'z';
  ASSERT_TRUE(pool_->UnpinPage(id, true).ok());
  auto again = pool_->FetchPage(id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->data()[0], 'z');
  ASSERT_TRUE(pool_->UnpinPage(id, false).ok());
  EXPECT_GE(pool_->hit_count(), 1u);
}

TEST_F(BufferPoolTest, EvictionWritesBackDirtyPages) {
  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) {  // double the pool size
    auto page = pool_->NewPage();
    ASSERT_TRUE(page.ok());
    (*page)->data()[0] = static_cast<char>('a' + i);
    ids.push_back((*page)->page_id());
    ASSERT_TRUE(pool_->UnpinPage(ids.back(), true).ok());
  }
  for (int i = 0; i < 8; ++i) {
    auto page = pool_->FetchPage(ids[i]);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ((*page)->data()[0], static_cast<char>('a' + i));
    ASSERT_TRUE(pool_->UnpinPage(ids[i], false).ok());
  }
}

TEST_F(BufferPoolTest, AllPinnedFails) {
  std::vector<PageId> ids;
  for (int i = 0; i < 4; ++i) {
    auto page = pool_->NewPage();
    ASSERT_TRUE(page.ok());
    ids.push_back((*page)->page_id());  // keep pinned
  }
  auto fifth = pool_->NewPage();
  EXPECT_FALSE(fifth.ok());
  EXPECT_TRUE(fifth.status().IsBusy());
  for (PageId id : ids) ASSERT_TRUE(pool_->UnpinPage(id, false).ok());
  EXPECT_TRUE(pool_->NewPage().ok());
}

TEST_F(BufferPoolTest, DoubleUnpinRejected) {
  auto page = pool_->NewPage();
  PageId id = (*page)->page_id();
  ASSERT_TRUE(pool_->UnpinPage(id, false).ok());
  EXPECT_TRUE(pool_->UnpinPage(id, false).IsFailedPrecondition());
}

TEST(BufferPoolReadAheadTest, WarmsPoolAndServesHits) {
  TempDir dir;
  auto dm_or = DiskManager::Open(dir.DbPath() + ".db");
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

  BufferPool pool(dm.get(), /*pool_size=*/kPages + 4);
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
  auto dm_or = DiskManager::Open(dir.DbPath() + ".db");
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

  BufferPool pool(dm.get(), /*pool_size=*/kPages + 4);
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

TEST(WalTest, AppendFlushReadBack) {
  TempDir dir;
  auto wal = Wal::Open(dir.DbPath() + ".wal");
  ASSERT_TRUE(wal.ok());
  WalRecord rec;
  rec.type = WalRecordType::kPhysical;
  rec.txn = 7;
  rec.page = 3;
  rec.slot = 1;
  rec.before = {0, 0, ""};
  rec.after = {1, 1, "payload"};
  auto lsn = (*wal)->Append(rec);
  ASSERT_TRUE(lsn.ok());
  WalRecord commit;
  commit.type = WalRecordType::kCommit;
  commit.txn = 7;
  ASSERT_TRUE((*wal)->Append(commit).ok());
  ASSERT_TRUE((*wal)->Flush().ok());

  std::vector<WalRecord> records;
  ASSERT_TRUE(reach::testing::ScanRecords(wal->get(), &records).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].type, WalRecordType::kPhysical);
  EXPECT_EQ(records[0].txn, 7u);
  EXPECT_EQ(records[0].page, 3u);
  EXPECT_EQ(records[0].after.bytes, "payload");
  EXPECT_EQ(records[1].type, WalRecordType::kCommit);
  EXPECT_LT(records[0].lsn, records[1].lsn);
}

TEST(WalTest, UnflushedRecordsNotDurable) {
  TempDir dir;
  std::string path = dir.DbPath() + ".wal";
  {
    auto wal = Wal::Open(path);
    WalRecord rec;
    rec.type = WalRecordType::kBegin;
    rec.txn = 1;
    ASSERT_TRUE((*wal)->Append(rec).ok());
    EXPECT_EQ((*wal)->unflushed_records(), 1u);
    // dropped without Flush
  }
  auto wal = Wal::Open(path);
  std::vector<WalRecord> records;
  ASSERT_TRUE(reach::testing::ScanRecords(wal->get(), &records).ok());
  EXPECT_TRUE(records.empty());
}

TEST(WalTest, TornTailIgnored) {
  TempDir dir;
  std::string path = dir.DbPath() + ".wal";
  {
    auto wal = Wal::Open(path);
    WalRecord rec;
    rec.type = WalRecordType::kBegin;
    rec.txn = 1;
    ASSERT_TRUE((*wal)->Append(rec).ok());
    ASSERT_TRUE((*wal)->Flush().ok());
  }
  // Append garbage to simulate a torn write: a frame declaring a 32-byte
  // body of which 8 bytes landed, ending the file inside the scan window.
  {
    FILE* f = fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "\x20\x00\x00\x00partial";
    fwrite(garbage, 1, sizeof(garbage), f);
    fclose(f);
  }
  auto wal = Wal::Open(path);
  ASSERT_TRUE(wal.ok());
  std::vector<WalRecord> records;
  ASSERT_TRUE(reach::testing::ScanRecords(wal->get(), &records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].txn, 1u);
  // The reopened log resumes after the last complete record.
  EXPECT_EQ((*wal)->next_lsn(), records[0].lsn + 1);
}

TEST(WalTest, LsnResumesAfterReopen) {
  TempDir dir;
  std::string path = dir.DbPath() + ".wal";
  Lsn last = 0;
  {
    auto wal = Wal::Open(path);
    WalRecord rec;
    rec.type = WalRecordType::kBegin;
    last = *(*wal)->Append(rec);
    ASSERT_TRUE((*wal)->Flush().ok());
  }
  auto wal = Wal::Open(path);
  WalRecord rec;
  rec.type = WalRecordType::kBegin;
  EXPECT_GT(*(*wal)->Append(rec), last);
}

// ---------------------------------------------------------------------------
// Wal::Scan: the bounded-window streaming decoder
// ---------------------------------------------------------------------------

using reach::testing::ScanRecords;

WalRecord PhysicalRecord(TxnId txn, PageId page, std::string after) {
  WalRecord rec;
  rec.type = WalRecordType::kPhysical;
  rec.txn = txn;
  rec.page = page;
  rec.slot = static_cast<SlotId>(page % 7);
  rec.before = {0, static_cast<uint16_t>(page % 5), ""};
  rec.after = {1, static_cast<uint16_t>(page % 5 + 1), std::move(after)};
  return rec;
}

WalRecord EventRecord(WalRecordType type, std::string payload) {
  WalRecord rec;
  rec.type = type;
  rec.payload = std::move(payload);
  return rec;
}

void ExpectSameRecords(const std::vector<WalRecord>& a,
                       const std::vector<WalRecord>& b,
                       const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(label + " record " + std::to_string(i));
    EXPECT_EQ(a[i].type, b[i].type);
    EXPECT_EQ(a[i].lsn, b[i].lsn);
    EXPECT_EQ(a[i].txn, b[i].txn);
    EXPECT_EQ(a[i].page, b[i].page);
    EXPECT_EQ(a[i].slot, b[i].slot);
    EXPECT_EQ(a[i].before.flag, b[i].before.flag);
    EXPECT_EQ(a[i].before.generation, b[i].before.generation);
    EXPECT_EQ(a[i].before.bytes, b[i].before.bytes);
    EXPECT_EQ(a[i].after.flag, b[i].after.flag);
    EXPECT_EQ(a[i].after.generation, b[i].after.generation);
    EXPECT_EQ(a[i].after.bytes, b[i].after.bytes);
    EXPECT_EQ(a[i].payload, b[i].payload);
  }
}

/// Append a log mixing every record kind with sizes from a few bytes to a
/// few KB; returns the records as appended (LSNs filled in).
std::vector<WalRecord> AppendMixedLog(Wal* wal, int n, uint64_t seed) {
  Random rng(seed);
  std::vector<WalRecord> appended;
  for (int i = 0; i < n; ++i) {
    WalRecord rec;
    switch (rng.Uniform(8)) {
      case 0:
        rec.type = WalRecordType::kBegin;
        rec.txn = 1 + rng.Uniform(50);
        break;
      case 1:
        rec.type = WalRecordType::kCommit;
        rec.txn = 1 + rng.Uniform(50);
        break;
      case 2:
        rec.type = WalRecordType::kAbort;
        rec.txn = 1 + rng.Uniform(50);
        break;
      case 3:
        rec = EventRecord(WalRecordType::kEventOccurrence,
                          std::string(rng.Uniform(300), 'o'));
        break;
      case 4:
        rec = EventRecord(WalRecordType::kEventCheckpoint,
                          std::string(rng.Uniform(5000), 'c'));
        break;
      case 5:
        rec = EventRecord(WalRecordType::kEventTombstone,
                          std::string(rng.Uniform(40), 't'));
        break;
      default:
        rec = PhysicalRecord(1 + rng.Uniform(50), 1 + rng.Uniform(100),
                             std::string(rng.Uniform(2500), 'a' + i % 26));
        rec.before.bytes = std::string(rng.Uniform(100), 'b');
        break;
    }
    auto lsn = wal->Append(rec);
    EXPECT_TRUE(lsn.ok());
    rec.lsn = *lsn;
    appended.push_back(std::move(rec));
  }
  EXPECT_TRUE(wal->Flush().ok());
  return appended;
}

TEST(WalScanTest, RecordsStraddlingWindowBoundariesDecode) {
  TempDir dir;
  auto wal = Wal::Open(dir.DbPath() + ".wal");
  ASSERT_TRUE(wal.ok());
  // 100..400-byte records through a 512-byte window: almost every refill
  // leaves a partial record at the window's end.
  std::vector<WalRecord> appended;
  for (int i = 0; i < 200; ++i) {
    WalRecord rec = PhysicalRecord(
        3, static_cast<PageId>(i), std::string(100 + (i * 37) % 300, 'x'));
    rec.lsn = *(*wal)->Append(rec);
    appended.push_back(std::move(rec));
  }
  ASSERT_TRUE((*wal)->Flush().ok());
  std::vector<WalRecord> scanned;
  ASSERT_TRUE(ScanRecords(wal->get(), &scanned, 512).ok());
  ExpectSameRecords(appended, scanned, "window=512");
}

TEST(WalScanTest, RecordLargerThanWindowDecodes) {
  TempDir dir;
  auto wal = Wal::Open(dir.DbPath() + ".wal");
  ASSERT_TRUE(wal.ok());
  // An event checkpoint three times the default window between two small
  // records: the window grows to the record's declared length.
  std::string big(3 * Wal::kScanWindowBytes + 17, '\0');
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>(i * 31);
  std::vector<WalRecord> appended = {
      PhysicalRecord(1, 1, "before"),
      EventRecord(WalRecordType::kEventCheckpoint, big),
      PhysicalRecord(1, 2, "after"),
  };
  for (WalRecord& rec : appended) rec.lsn = *(*wal)->Append(rec);
  ASSERT_TRUE((*wal)->Flush().ok());
  for (size_t window : {size_t{64}, Wal::kScanWindowBytes}) {
    std::vector<WalRecord> scanned;
    ASSERT_TRUE(ScanRecords(wal->get(), &scanned, window).ok());
    ExpectSameRecords(appended, scanned,
                      "window=" + std::to_string(window));
  }
}

TEST(WalScanTest, CorruptRecordEndsTheScan) {
  TempDir dir;
  std::string path = dir.DbPath() + ".wal";
  std::vector<WalRecord> appended;
  {
    auto wal = Wal::Open(path);
    appended = AppendMixedLog(wal->get(), 40, 11);
  }
  // Flip one byte in the middle of the file: every record before the one
  // holding it is visited, nothing from there on.
  std::vector<WalRecord> intact;
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE(ScanRecords(wal->get(), &intact).ok());
    ASSERT_EQ(intact.size(), appended.size());
  }
  const auto size = std::filesystem::file_size(path);
  {
    FILE* f = fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    fseek(f, static_cast<long>(size / 2), SEEK_SET);
    int c = fgetc(f);
    fseek(f, static_cast<long>(size / 2), SEEK_SET);
    fputc(c ^ 0x5a, f);
    fclose(f);
  }
  auto wal = Wal::Open(path);
  for (size_t window : {size_t{128}, Wal::kScanWindowBytes}) {
    std::vector<WalRecord> scanned;
    ASSERT_TRUE(ScanRecords(wal->get(), &scanned, window).ok());
    ASSERT_GT(scanned.size(), 0u);
    ASSERT_LT(scanned.size(), appended.size());
    ExpectSameRecords(
        std::vector<WalRecord>(appended.begin(),
                               appended.begin() + scanned.size()),
        scanned, "corrupt middle, window=" + std::to_string(window));
  }
}

TEST(WalScanTest, MatchesWholeFileDecodeOnMixedLog) {
  TempDir dir;
  auto wal = Wal::Open(dir.DbPath() + ".wal");
  ASSERT_TRUE(wal.ok());
  std::vector<WalRecord> appended = AppendMixedLog(wal->get(), 600, 7);
  // A window as large as the file reads the whole log in one pread and
  // decodes it in one pass, which is the former read-everything decode.
  const size_t file_size = std::filesystem::file_size(dir.DbPath() + ".wal");
  std::vector<WalRecord> whole;
  ASSERT_TRUE(ScanRecords(wal->get(), &whole, file_size).ok());
  ExpectSameRecords(appended, whole, "whole file");
  for (size_t window :
       {size_t{1}, size_t{97}, size_t{4096}, Wal::kScanWindowBytes}) {
    std::vector<WalRecord> scanned;
    ASSERT_TRUE(ScanRecords(wal->get(), &scanned, window).ok());
    ExpectSameRecords(whole, scanned, "window=" + std::to_string(window));
  }
}

TEST(WalScanTest, VisitorErrorStopsTheScan) {
  TempDir dir;
  auto wal = Wal::Open(dir.DbPath() + ".wal");
  AppendMixedLog(wal->get(), 20, 3);
  int visited = 0;
  Status st = (*wal)->Scan([&visited](WalRecord&) {
    return ++visited == 5 ? Status::Aborted("stop") : Status::OK();
  });
  EXPECT_TRUE(st.IsAborted());
  EXPECT_EQ(visited, 5);
}

class ObjectStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto sm = StorageManager::Open(dir_.DbPath());
    ASSERT_TRUE(sm.ok()) << sm.status().ToString();
    sm_ = std::move(*sm);
  }
  ObjectStore* store() { return sm_->objects(); }
  TempDir dir_;
  std::unique_ptr<StorageManager> sm_;
};

TEST_F(ObjectStoreTest, InsertReadUpdateDelete) {
  auto oid = store()->Insert(1, "hello");
  ASSERT_TRUE(oid.ok());
  EXPECT_EQ(*store()->Read(*oid), "hello");
  ASSERT_TRUE(store()->Update(1, *oid, "goodbye").ok());
  EXPECT_EQ(*store()->Read(*oid), "goodbye");
  ASSERT_TRUE(store()->Delete(1, *oid).ok());
  EXPECT_TRUE(store()->Read(*oid).status().IsNotFound());
}

TEST_F(ObjectStoreTest, DanglingOidDetectedAfterReuse) {
  auto oid = store()->Insert(1, "first");
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(store()->Delete(1, *oid).ok());
  auto oid2 = store()->Insert(1, "second");
  ASSERT_TRUE(oid2.ok());
  // Same slot, different generation.
  EXPECT_EQ(oid2->page, oid->page);
  EXPECT_EQ(oid2->slot, oid->slot);
  EXPECT_NE(oid2->generation, oid->generation);
  EXPECT_TRUE(store()->Read(*oid).status().IsNotFound());
  EXPECT_EQ(*store()->Read(*oid2), "second");
}

TEST_F(ObjectStoreTest, UpdateThatOutgrowsPageKeepsOid) {
  // Fill a page so the update cannot stay in place.
  auto oid = store()->Insert(1, "tiny");
  ASSERT_TRUE(oid.ok());
  std::vector<Oid> fillers;
  for (int i = 0; i < 10; ++i) {
    auto f = store()->Insert(1, std::string(380, 'f'));
    ASSERT_TRUE(f.ok());
    if (f->page == oid->page) fillers.push_back(*f);
  }
  std::string big(3000, 'B');
  ASSERT_TRUE(store()->Update(1, *oid, big).ok());
  EXPECT_EQ(*store()->Read(*oid), big);  // OID stable through the move
  // Update the moved object again (through the forward stub).
  std::string bigger(3500, 'C');
  ASSERT_TRUE(store()->Update(1, *oid, bigger).ok());
  EXPECT_EQ(*store()->Read(*oid), bigger);
  ASSERT_TRUE(store()->Delete(1, *oid).ok());
  EXPECT_TRUE(store()->Read(*oid).status().IsNotFound());
}

TEST_F(ObjectStoreTest, LargeObjectsChainAcrossPages) {
  std::string big;
  Random rng(5);
  for (int i = 0; i < 20000; ++i) {
    big.push_back(static_cast<char>('a' + rng.Uniform(26)));
  }
  auto oid = store()->Insert(1, big);
  ASSERT_TRUE(oid.ok());
  EXPECT_EQ(*store()->Read(*oid), big);
  // Update a large object to a different large value.
  std::string other(15000, 'Q');
  ASSERT_TRUE(store()->Update(1, *oid, other).ok());
  EXPECT_EQ(*store()->Read(*oid), other);
  // Shrink back to a small object.
  ASSERT_TRUE(store()->Update(1, *oid, "small again").ok());
  EXPECT_EQ(*store()->Read(*oid), "small again");
  ASSERT_TRUE(store()->Delete(1, *oid).ok());
}

TEST_F(ObjectStoreTest, ScanAllReportsHomeOids) {
  std::vector<Oid> created;
  for (int i = 0; i < 50; ++i) {
    auto oid = store()->Insert(1, "obj" + std::to_string(i));
    ASSERT_TRUE(oid.ok());
    created.push_back(*oid);
  }
  // Move one via an oversized update; scan must still report its home OID
  // exactly once.
  std::string big(3900, 'm');
  ASSERT_TRUE(store()->Update(1, created[0], big).ok());
  auto scan = store()->ScanAll();
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->size(), created.size());
  for (const Oid& oid : created) {
    EXPECT_NE(std::find(scan->begin(), scan->end(), oid), scan->end());
  }
}

TEST_F(ObjectStoreTest, ExistsChecksLiveness) {
  auto oid = store()->Insert(1, "x");
  EXPECT_TRUE(store()->Exists(*oid));
  ASSERT_TRUE(store()->Delete(1, *oid).ok());
  EXPECT_FALSE(store()->Exists(*oid));
  EXPECT_FALSE(store()->Exists(Oid{999, 1, 1}));
}

TEST_F(ObjectStoreTest, ManyObjectsAcrossManyPages) {
  Random rng(77);
  std::unordered_map<std::string, Oid> objects;
  for (int i = 0; i < 2000; ++i) {
    std::string payload = "payload_" + std::to_string(i) +
                          std::string(rng.Uniform(200), 'p');
    auto oid = store()->Insert(1, payload);
    ASSERT_TRUE(oid.ok());
    objects[payload] = *oid;
  }
  EXPECT_GT(store()->data_page_count(), 10u);
  for (const auto& [payload, oid] : objects) {
    ASSERT_EQ(*store()->Read(oid), payload);
  }
}

TEST_F(ObjectStoreTest, FreeSpaceReusedAfterDeletes) {
  std::vector<Oid> oids;
  for (int i = 0; i < 600; ++i) {
    auto oid = store()->Insert(1, std::string(250, 'a' + i % 26));
    ASSERT_TRUE(oid.ok());
    oids.push_back(*oid);
  }
  const size_t pages = store()->data_page_count();
  ASSERT_GT(pages, 20u);
  // Free every other object: each page keeps half its cells live.
  for (size_t i = 0; i < oids.size(); i += 2) {
    ASSERT_TRUE(store()->Delete(1, oids[i]).ok());
  }
  // The same volume again fits in the holes: no page is allocated.
  for (size_t i = 0; i < oids.size(); i += 2) {
    auto oid = store()->Insert(1, std::string(250, 'z'));
    ASSERT_TRUE(oid.ok());
    oids[i] = *oid;
  }
  EXPECT_EQ(store()->data_page_count(), pages);
  for (size_t i = 0; i < oids.size(); ++i) {
    auto read = store()->Read(oids[i]);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(*read, std::string(250, i % 2 == 0 ? 'z' : 'a' + i % 26));
  }
}

TEST_F(ObjectStoreTest, BestFitFillsThePartialPageFirst) {
  // Two pages: one nearly full, one nearly empty. A small insert goes to
  // the nearly full page, keeping the empty one for larger objects.
  auto first = store()->Insert(1, std::string(3000, 'f'));
  ASSERT_TRUE(first.ok());
  auto second = store()->Insert(1, std::string(3000, 's'));
  ASSERT_TRUE(second.ok());
  ASSERT_NE(first->page, second->page);
  ASSERT_TRUE(store()->Delete(1, *second).ok());
  auto small = store()->Insert(1, std::string(200, 'm'));
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small->page, first->page);
  auto large = store()->Insert(1, std::string(3000, 'l'));
  ASSERT_TRUE(large.ok());
  EXPECT_EQ(large->page, second->page);
  EXPECT_EQ(store()->data_page_count(), 2u);
}

TEST_F(ObjectStoreTest, BootstrapRebuildsFreeSpaceIndex) {
  std::vector<Oid> oids;
  for (int i = 0; i < 400; ++i) {
    auto oid = store()->Insert(1, std::string(300, 'b'));
    ASSERT_TRUE(oid.ok());
    oids.push_back(*oid);
  }
  for (size_t i = 0; i < oids.size(); i += 2) {
    ASSERT_TRUE(store()->Delete(1, oids[i]).ok());
  }
  const size_t pages = store()->data_page_count();
  auto before = store()->ScanAll();
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(store()->Bootstrap().ok());
  EXPECT_EQ(store()->data_page_count(), pages);
  auto after = store()->ScanAll();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*before, *after);
  // The rebuilt index still knows the holes.
  for (size_t i = 0; i < oids.size(); i += 2) {
    ASSERT_TRUE(store()->Insert(1, std::string(300, 'n')).ok());
  }
  EXPECT_EQ(store()->data_page_count(), pages);
}

TEST(StorageManagerTest, ReopenAfterLargeLoadReadsEveryObject) {
  TempDir dir;
  constexpr int kObjects = 20000;
  std::vector<std::pair<Oid, std::string>> loaded;
  loaded.reserve(kObjects);
  {
    auto sm = StorageManager::Open(dir.DbPath());
    ASSERT_TRUE(sm.ok());
    ObjectStore* store = (*sm)->objects();
    Random rng(20);
    for (int i = 0; i < kObjects; ++i) {
      const TxnId txn = 1 + i / 1000;
      if (i % 1000 == 0) {
        ASSERT_TRUE((*sm)->LogBegin(txn).ok());
      }
      std::string bytes =
          std::to_string(i) + ":" + std::string(50 + rng.Uniform(250), 'v');
      auto oid = store->Insert(txn, bytes);
      ASSERT_TRUE(oid.ok()) << oid.status().ToString();
      loaded.emplace_back(*oid, std::move(bytes));
      if (i % 1000 == 999) {
        ASSERT_TRUE(reach::testing::DurableLogCommit(sm->get(), txn).ok());
      }
    }
    ASSERT_TRUE((*sm)->Checkpoint().ok());
  }
  auto sm = StorageManager::Open(dir.DbPath());
  ASSERT_TRUE(sm.ok());
  ObjectStore* store = (*sm)->objects();
  for (const auto& [oid, bytes] : loaded) {
    auto read = store->Read(oid);
    ASSERT_TRUE(read.ok()) << oid.ToString() << ": "
                           << read.status().ToString();
    ASSERT_EQ(*read, bytes);
  }
  auto scan = store->ScanAll();
  ASSERT_TRUE(scan.ok());
  std::vector<Oid> want;
  for (const auto& [oid, _] : loaded) want.push_back(oid);
  std::sort(want.begin(), want.end(), [](const Oid& a, const Oid& b) {
    return std::tie(a.page, a.slot) < std::tie(b.page, b.slot);
  });
  EXPECT_EQ(*scan, want);
}

TEST(StorageManagerTest, ExtentMatchesAfterRecoveringLargeLoad) {
  TempDir dir;
  constexpr int kObjects = 20000;
  auto register_item = [](Database* db) {
    return db->types()->RegisterClass(
        ClassBuilder("Item")
            .Attribute("k", ValueType::kInt, Value(0))
            .Attribute("pad", ValueType::kString, Value(""))
            .Build());
  };
  std::vector<Oid> created;
  created.reserve(kObjects);
  {
    auto db = Database::Open(dir.DbPath());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(register_item(db->get()).ok());
    Session s(db->get());
    for (int i = 0; i < kObjects; ++i) {
      if (i % 1000 == 0) {
        ASSERT_TRUE(s.Begin().ok());
      }
      auto oid = s.PersistNew(
          "Item", {{"k", Value(static_cast<int64_t>(i))},
                   {"pad", Value(std::string(150, 'p'))}});
      ASSERT_TRUE(oid.ok()) << oid.status().ToString();
      created.push_back(*oid);
      if (i % 1000 == 999) {
        ASSERT_TRUE(s.Commit().ok());
      }
    }
    // Closed without a checkpoint: the reopen recovers the whole load.
  }
  auto db = Database::Open(dir.DbPath());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_GE((*db)->storage()->recovery_stats().records_scanned,
            static_cast<size_t>(kObjects));
  ASSERT_TRUE(register_item(db->get()).ok());
  Session s(db->get());
  ASSERT_TRUE(s.Begin().ok());
  auto extent = s.Extent("Item");
  ASSERT_TRUE(extent.ok()) << extent.status().ToString();
  std::vector<Oid> got = *extent;
  auto by_location = [](const Oid& a, const Oid& b) {
    return std::tie(a.page, a.slot, a.generation) <
           std::tie(b.page, b.slot, b.generation);
  };
  std::sort(got.begin(), got.end(), by_location);
  std::vector<Oid> want = created;
  std::sort(want.begin(), want.end(), by_location);
  EXPECT_EQ(got, want);
  for (int i = 0; i < kObjects; ++i) {
    auto obj = s.Fetch(created[i]);
    ASSERT_TRUE(obj.ok()) << obj.status().ToString();
    ASSERT_EQ((*obj)->Get("k"), Value(static_cast<int64_t>(i)));
  }
  ASSERT_TRUE(s.Commit().ok());
}

TEST(StorageManagerTest, MetaRootRoundTrip) {
  TempDir dir;
  auto sm = StorageManager::Open(dir.DbPath());
  ASSERT_TRUE(sm.ok());
  EXPECT_FALSE((*sm)->GetMetaRoot()->valid());
  Oid root{5, 2, 1};
  ASSERT_TRUE((*sm)->SetMetaRoot(root).ok());
  EXPECT_EQ(*(*sm)->GetMetaRoot(), root);
}

TEST(StorageManagerTest, MetaRootSurvivesReopen) {
  TempDir dir;
  Oid root{5, 2, 1};
  {
    auto sm = StorageManager::Open(dir.DbPath());
    ASSERT_TRUE((*sm)->SetMetaRoot(root).ok());
    ASSERT_TRUE((*sm)->Checkpoint().ok());
  }
  auto sm = StorageManager::Open(dir.DbPath());
  ASSERT_TRUE(sm.ok());
  EXPECT_EQ(*(*sm)->GetMetaRoot(), root);
}

class DiskBatchFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultRegistry::Instance().DisarmAll(); }
};

// An injected failure at submit or complete must surface as a Status (no
// crash, no partial success reported as OK), and the database must reopen
// cleanly once the fault clears.
TEST_F(DiskBatchFaultTest, SubmitAndCompleteFaultsDegradeGracefully) {
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
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    auto body = (*reopened)->objects()->Read(oid);
    ASSERT_TRUE(body.ok());
    EXPECT_EQ(*body, "survives the fault");
  }
}

}  // namespace
}  // namespace reach
