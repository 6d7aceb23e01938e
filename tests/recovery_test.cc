// Crash-recovery tests: a "crash" is simulated by destroying the storage
// manager without flushing the buffer pool (dirty pages and unflushed WAL
// buffer are lost), then reopening — Open() runs recovery.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "oodb/database.h"
#include "oodb/session.h"
#include "storage/storage_manager.h"
#include "test_util.h"

namespace reach {
namespace {

using reach::testing::DurableLogCommit;
using reach::testing::ScanRecords;
using reach::testing::TempDir;

TEST(RecoveryTest, CommittedInsertSurvivesCrash) {
  TempDir dir;
  Oid oid;
  {
    auto sm = StorageManager::Open(dir.DbPath());
    ASSERT_TRUE(sm.ok());
    ASSERT_TRUE((*sm)->LogBegin(1).ok());
    auto r = (*sm)->objects()->Insert(1, "durable");
    ASSERT_TRUE(r.ok());
    oid = *r;
    ASSERT_TRUE(DurableLogCommit(sm->get(), 1).ok());
    // Crash: no checkpoint, no flush.
  }
  auto sm = StorageManager::Open(dir.DbPath());
  ASSERT_TRUE(sm.ok());
  EXPECT_GE((*sm)->recovery_stats().records_redone, 1u);
  EXPECT_EQ((*sm)->recovery_stats().committed_txns, 1u);
  auto read = (*sm)->objects()->Read(oid);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, "durable");
}

TEST(RecoveryTest, UncommittedInsertRolledBack) {
  TempDir dir;
  Oid committed_oid, loser_oid;
  {
    auto sm = StorageManager::Open(dir.DbPath());
    ASSERT_TRUE((*sm)->LogBegin(1).ok());
    committed_oid = *(*sm)->objects()->Insert(1, "keep");
    ASSERT_TRUE(DurableLogCommit(sm->get(), 1).ok());

    ASSERT_TRUE((*sm)->LogBegin(2).ok());
    loser_oid = *(*sm)->objects()->Insert(2, "lose");
    // Force everything to disk so the loser's page changes are durable —
    // recovery must actively undo them.
    ASSERT_TRUE((*sm)->buffer_pool()->FlushAll().ok());
    // Crash before commit of txn 2.
  }
  auto sm = StorageManager::Open(dir.DbPath());
  ASSERT_TRUE(sm.ok());
  EXPECT_EQ((*sm)->recovery_stats().loser_txns, 1u);
  EXPECT_GE((*sm)->recovery_stats().records_undone, 1u);
  EXPECT_EQ(*(*sm)->objects()->Read(committed_oid), "keep");
  EXPECT_TRUE((*sm)->objects()->Read(loser_oid).status().IsNotFound());
}

TEST(RecoveryTest, CommittedUpdateAndDeleteSurvive) {
  TempDir dir;
  Oid updated, deleted;
  {
    auto sm = StorageManager::Open(dir.DbPath());
    ASSERT_TRUE((*sm)->LogBegin(1).ok());
    updated = *(*sm)->objects()->Insert(1, "v1");
    deleted = *(*sm)->objects()->Insert(1, "doomed");
    ASSERT_TRUE(DurableLogCommit(sm->get(), 1).ok());
    ASSERT_TRUE((*sm)->Checkpoint().ok());

    ASSERT_TRUE((*sm)->LogBegin(2).ok());
    ASSERT_TRUE((*sm)->objects()->Update(2, updated, "v2").ok());
    ASSERT_TRUE((*sm)->objects()->Delete(2, deleted).ok());
    ASSERT_TRUE(DurableLogCommit(sm->get(), 2).ok());
    // Crash after commit.
  }
  auto sm = StorageManager::Open(dir.DbPath());
  EXPECT_EQ(*(*sm)->objects()->Read(updated), "v2");
  EXPECT_TRUE((*sm)->objects()->Read(deleted).status().IsNotFound());
}

TEST(RecoveryTest, UncommittedUpdateRestoresOldValue) {
  TempDir dir;
  Oid oid;
  {
    auto sm = StorageManager::Open(dir.DbPath());
    ASSERT_TRUE((*sm)->LogBegin(1).ok());
    oid = *(*sm)->objects()->Insert(1, "original");
    ASSERT_TRUE(DurableLogCommit(sm->get(), 1).ok());

    ASSERT_TRUE((*sm)->LogBegin(2).ok());
    ASSERT_TRUE((*sm)->objects()->Update(2, oid, "tampered").ok());
    ASSERT_TRUE((*sm)->buffer_pool()->FlushAll().ok());
    // Crash: txn 2 never committed.
  }
  auto sm = StorageManager::Open(dir.DbPath());
  EXPECT_EQ(*(*sm)->objects()->Read(oid), "original");
}

TEST(RecoveryTest, AbortedTransactionStaysRolledBack) {
  TempDir dir;
  Oid oid;
  {
    auto sm = StorageManager::Open(dir.DbPath());
    ASSERT_TRUE((*sm)->LogBegin(1).ok());
    oid = *(*sm)->objects()->Insert(1, "original");
    ASSERT_TRUE(DurableLogCommit(sm->get(), 1).ok());

    // Abort with logged compensation, as the transaction manager does.
    ASSERT_TRUE((*sm)->LogBegin(2).ok());
    ASSERT_TRUE((*sm)->objects()->Update(2, oid, "scribble").ok());
    WalCellImage restore;
    restore.flag = 1;  // kLive
    restore.generation = oid.generation;
    restore.bytes = std::string(1, '\0') + "original";  // whole-envelope
    ASSERT_TRUE((*sm)->objects()
                    ->ApplyImageLogged(2, oid.page, oid.slot, restore)
                    .ok());
    ASSERT_TRUE((*sm)->LogAbort(2).ok());
    // Crash.
  }
  auto sm = StorageManager::Open(dir.DbPath());
  EXPECT_EQ((*sm)->recovery_stats().aborted_txns, 1u);
  EXPECT_EQ((*sm)->recovery_stats().loser_txns, 0u);
  EXPECT_EQ(*(*sm)->objects()->Read(oid), "original");
}

TEST(RecoveryTest, RecoveryIsIdempotent) {
  TempDir dir;
  Oid oid;
  {
    auto sm = StorageManager::Open(dir.DbPath());
    ASSERT_TRUE((*sm)->LogBegin(1).ok());
    oid = *(*sm)->objects()->Insert(1, "stable");
    ASSERT_TRUE(DurableLogCommit(sm->get(), 1).ok());
  }
  // Open/close repeatedly; state must not change.
  for (int i = 0; i < 3; ++i) {
    auto sm = StorageManager::Open(dir.DbPath());
    ASSERT_TRUE(sm.ok());
    EXPECT_EQ(*(*sm)->objects()->Read(oid), "stable");
  }
}

TEST(RecoveryTest, LargeObjectRecovery) {
  TempDir dir;
  std::string big(20000, 'L');
  Oid oid;
  {
    auto sm = StorageManager::Open(dir.DbPath());
    ASSERT_TRUE((*sm)->LogBegin(1).ok());
    oid = *(*sm)->objects()->Insert(1, big);
    ASSERT_TRUE(DurableLogCommit(sm->get(), 1).ok());
  }
  auto sm = StorageManager::Open(dir.DbPath());
  EXPECT_EQ(*(*sm)->objects()->Read(oid), big);
}

TEST(RecoveryTest, MixedWinnersAndLosers) {
  TempDir dir;
  std::vector<Oid> winners, losers;
  {
    auto sm = StorageManager::Open(dir.DbPath());
    for (TxnId t = 1; t <= 10; ++t) {
      ASSERT_TRUE((*sm)->LogBegin(t).ok());
      auto oid =
          (*sm)->objects()->Insert(t, "txn" + std::to_string(t));
      ASSERT_TRUE(oid.ok());
      if (t % 2 == 0) {
        ASSERT_TRUE(DurableLogCommit(sm->get(), t).ok());
        winners.push_back(*oid);
      } else {
        losers.push_back(*oid);
      }
    }
    ASSERT_TRUE((*sm)->buffer_pool()->FlushAll().ok());
  }
  auto sm = StorageManager::Open(dir.DbPath());
  EXPECT_EQ((*sm)->recovery_stats().committed_txns, 5u);
  EXPECT_EQ((*sm)->recovery_stats().loser_txns, 5u);
  for (const Oid& oid : winners) {
    EXPECT_TRUE((*sm)->objects()->Read(oid).ok());
  }
  for (const Oid& oid : losers) {
    EXPECT_TRUE((*sm)->objects()->Read(oid).status().IsNotFound());
  }
}

TEST(RecoveryTest, LoserSpanningScanWindowsIsUndone) {
  // A log several Wal::Scan windows long with one loser whose records sit
  // in every window: redo streams over all of it, and undo restores the
  // loser's before-images collected on the way, newest first. The loser
  // also deletes committed objects; later winners' inserts must not reuse
  // the freed slots, or undoing the delete would overwrite them.
  TempDir dir;
  constexpr TxnId kLoser = 1;
  constexpr int kRounds = 1200;
  std::vector<std::pair<Oid, std::string>> committed;
  std::vector<Oid> loser_inserts;
  size_t loser_records = 0;
  {
    auto sm = StorageManager::Open(dir.DbPath());
    ASSERT_TRUE(sm.ok());
    ObjectStore* store = (*sm)->objects();
    store->set_mutation_listener(
        [&loser_records](TxnId txn, PageId, SlotId, const WalCellImage&) {
          if (txn == kLoser) ++loser_records;
        });
    ASSERT_TRUE((*sm)->LogBegin(kLoser).ok());
    for (int r = 0; r < kRounds; ++r) {
      const TxnId winner = 2 + r;
      ASSERT_TRUE((*sm)->LogBegin(winner).ok());
      std::string value = "w" + std::to_string(r) + std::string(2500, 'w');
      auto oid = store->Insert(winner, value);
      ASSERT_TRUE(oid.ok()) << oid.status().ToString();
      ASSERT_TRUE(DurableLogCommit(sm->get(), winner).ok());
      committed.emplace_back(*oid, std::move(value));

      auto mine = store->Insert(kLoser, std::string(1000, 'L'));
      ASSERT_TRUE(mine.ok()) << mine.status().ToString();
      loser_inserts.push_back(*mine);
      if (r % 100 == 50) {
        // Overwrite an older committed object twice: undo must apply the
        // before-images in reverse to land on the committed value.
        const Oid& victim = committed[r - 50].first;
        const size_t len = committed[r - 50].second.size();
        ASSERT_TRUE(store->Update(kLoser, victim, std::string(len, '1')).ok());
        ASSERT_TRUE(store->Update(kLoser, victim, std::string(len, '2')).ok());
      }
      if (r % 100 == 75) {
        ASSERT_TRUE(store->Delete(kLoser, committed[r - 70].first).ok());
      }
    }
    // Make the loser's page changes durable so undo has to act on disk.
    ASSERT_TRUE((*sm)->buffer_pool()->FlushAll().ok());
    // Crash: the loser never commits.
  }
  ASSERT_GE(std::filesystem::file_size(dir.DbPath() + ".wal"),
            3 * Wal::kScanWindowBytes);
  auto sm = StorageManager::Open(dir.DbPath());
  ASSERT_TRUE(sm.ok()) << sm.status().ToString();
  const RecoveryStats& stats = (*sm)->recovery_stats();
  EXPECT_EQ(stats.loser_txns, 1u);
  EXPECT_EQ(stats.committed_txns, static_cast<size_t>(kRounds));
  EXPECT_EQ(stats.records_undone, loser_records);
  EXPECT_GE(stats.records_redone, kRounds + loser_records);
  for (const auto& [oid, value] : committed) {
    auto read = (*sm)->objects()->Read(oid);
    ASSERT_TRUE(read.ok()) << oid.ToString() << ": "
                           << read.status().ToString();
    ASSERT_EQ(*read, value);
  }
  for (const Oid& oid : loser_inserts) {
    EXPECT_TRUE((*sm)->objects()->Read(oid).status().IsNotFound());
  }
}

// -- Class extents on owned pages (docs/STORAGE.md "Page owners") ----------

Status RegisterItem(Database* db) {
  return db->types()->RegisterClass(
      ClassBuilder("Item").Attribute("k", ValueType::kInt, Value(0)).Build());
}

Status RegisterClasses(Database* db) {
  REACH_RETURN_IF_ERROR(RegisterItem(db));
  return db->types()->RegisterClass(
      ClassBuilder("Other").Attribute("k", ValueType::kInt, Value(0)).Build());
}

/// True when `page` of the data file holds a formatted page (a nonzero
/// first word), i.e. some image of it was flushed.
bool PageFormattedOnDisk(const std::string& db_file, PageId page) {
  std::ifstream in(db_file, std::ios::binary);
  in.seekg(static_cast<std::streamoff>(page) * kPageSize);
  uint32_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  return in.gcount() == sizeof(magic) && magic != 0;
}

Result<std::vector<Oid>> ExtentOf(Database* db, const std::string& cls) {
  Session s(db);
  REACH_RETURN_IF_ERROR(s.Begin());
  REACH_ASSIGN_OR_RETURN(std::vector<Oid> extent,
                         s.Extent(cls, /*include_subclasses=*/false));
  REACH_RETURN_IF_ERROR(s.Commit());
  return extent;
}

TEST(RecoveryTest, UnflushedOwnedPageRecoversWinnersOnly) {
  TempDir dir;
  std::vector<Oid> winners, losers;
  Oid anchor;
  PageId page = kInvalidPageId;
  {
    auto db = Database::Open(dir.DbPath());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(RegisterItem(db->get()).ok());
    Session w(db->get());
    ASSERT_TRUE(w.Begin().ok());
    for (int i = 0; i < 3; ++i) {
      winners.push_back(*w.PersistNew("Item", {{"k", Value(i)}}));
    }
    ASSERT_TRUE(w.Commit().ok());
    Session l(db->get());
    ASSERT_TRUE(l.Begin().ok());
    for (int i = 0; i < 3; ++i) {
      losers.push_back(*l.PersistNew("Item", {{"k", Value(100 + i)}}));
    }
    anchor = *(*db)->dictionary()->Lookup("__extent::Item");
    std::vector<PageId> pages = (*db)->storage()->objects()->OwnedPages(anchor);
    ASSERT_EQ(pages.size(), 1u);
    page = pages[0];
    for (const Oid& oid : winners) ASSERT_EQ(oid.page, page);
    for (const Oid& oid : losers) ASSERT_EQ(oid.page, page);
    // The loser's inserts reach the log, so recovery must undo them; the
    // page itself stays in the buffer pool.
    ASSERT_TRUE((*db)->storage()->wal()->Flush().ok());
    l.ReleaseTxn();  // crash: the loser neither commits nor aborts
  }
  // Only the kPageFormat redo can give the page its owner back.
  ASSERT_FALSE(PageFormattedOnDisk(dir.DbPath() + ".db", page));
  auto db = Database::Open(dir.DbPath());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->storage()->recovery_stats().loser_txns, 1u);
  ASSERT_TRUE(RegisterItem(db->get()).ok());
  EXPECT_EQ((*db)->storage()->objects()->OwnedPages(anchor),
            std::vector<PageId>{page});
  auto extent = ExtentOf(db->get(), "Item");
  ASSERT_TRUE(extent.ok()) << extent.status().ToString();
  EXPECT_EQ(*extent, winners);
}

TEST(RecoveryTest, ExtentsUnchangedAcrossCheckpointAndReopen) {
  TempDir dir;
  std::vector<Oid> items, others;
  {
    auto db = Database::Open(dir.DbPath());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(RegisterClasses(db->get()).ok());
    Session s(db->get());
    ASSERT_TRUE(s.Begin().ok());
    // Interleaved inserts of two classes, enough to span several pages.
    for (int i = 0; i < 120; ++i) {
      std::vector<std::pair<std::string, Value>> attrs = {{"k", Value(i)}};
      if (i % 3 == 0) {
        others.push_back(*s.PersistNew("Other", std::move(attrs)));
      } else {
        items.push_back(*s.PersistNew("Item", std::move(attrs)));
      }
    }
    ASSERT_TRUE(s.Delete(items[7]).ok());
    items.erase(items.begin() + 7);
    ASSERT_TRUE(s.Commit().ok());
    ASSERT_TRUE((*db)->storage()->Checkpoint().ok());
    // The flushed headers hold the owners; no page format is carried.
    std::vector<WalRecord> records;
    ASSERT_TRUE(ScanRecords((*db)->storage()->wal(), &records).ok());
    for (const WalRecord& rec : records) {
      EXPECT_NE(rec.type, WalRecordType::kPageFormat);
    }
    EXPECT_EQ(*ExtentOf(db->get(), "Item"), items);
    EXPECT_EQ(*ExtentOf(db->get(), "Other"), others);
  }
  auto db = Database::Open(dir.DbPath());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(RegisterClasses(db->get()).ok());
  auto item_extent = ExtentOf(db->get(), "Item");
  ASSERT_TRUE(item_extent.ok()) << item_extent.status().ToString();
  EXPECT_EQ(*item_extent, items);
  EXPECT_EQ(*ExtentOf(db->get(), "Other"), others);
}

TEST(RecoveryTest, AbortedDeleteReturnsObjectToExtent) {
  TempDir dir;
  std::vector<Oid> items;
  {
    auto db = Database::Open(dir.DbPath());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(RegisterItem(db->get()).ok());
    Session s(db->get());
    ASSERT_TRUE(s.Begin().ok());
    for (int i = 0; i < 4; ++i) {
      items.push_back(*s.PersistNew("Item", {{"k", Value(i)}}));
    }
    ASSERT_TRUE(s.Commit().ok());

    ASSERT_TRUE(s.Begin().ok());
    ASSERT_TRUE(s.Delete(items[1]).ok());
    auto inside = s.Extent("Item");
    ASSERT_TRUE(inside.ok());
    EXPECT_EQ(inside->size(), 3u);
    ASSERT_TRUE(s.Abort().ok());
    EXPECT_EQ(*ExtentOf(db->get(), "Item"), items);
    // Crash without a checkpoint: the compensation replays too.
  }
  auto db = Database::Open(dir.DbPath());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(RegisterItem(db->get()).ok());
  auto extent = ExtentOf(db->get(), "Item");
  ASSERT_TRUE(extent.ok()) << extent.status().ToString();
  EXPECT_EQ(*extent, items);
}

}  // namespace
}  // namespace reach
