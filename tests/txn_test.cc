#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "storage/storage_manager.h"
#include "test_util.h"
#include "txn/lock_manager.h"
#include "txn/transaction_manager.h"

namespace reach {
namespace {

using reach::testing::TempDir;

// ---------------------------------------------------------------------------
// LockManager
// ---------------------------------------------------------------------------

class LockManagerTest : public ::testing::Test {
 protected:
  LockManager lm_;
  Oid res_a_{1, 0, 1};
  Oid res_b_{2, 0, 1};
};

TEST_F(LockManagerTest, SharedLocksCompatible) {
  lm_.RegisterTxn(1, kNoTxn);
  lm_.RegisterTxn(2, kNoTxn);
  EXPECT_TRUE(lm_.Acquire(1, res_a_, LockMode::kShared).ok());
  EXPECT_TRUE(lm_.Acquire(2, res_a_, LockMode::kShared).ok());
  EXPECT_TRUE(lm_.Holds(1, res_a_, LockMode::kShared));
  EXPECT_TRUE(lm_.Holds(2, res_a_, LockMode::kShared));
}

TEST_F(LockManagerTest, ExclusiveBlocksOther) {
  lm_.RegisterTxn(1, kNoTxn);
  lm_.RegisterTxn(2, kNoTxn);
  ASSERT_TRUE(lm_.Acquire(1, res_a_, LockMode::kExclusive).ok());
  Status st = lm_.Acquire(2, res_a_, LockMode::kShared, /*timeout_us=*/20000);
  EXPECT_TRUE(st.IsTimedOut());
  lm_.ReleaseAll(1);
  EXPECT_TRUE(lm_.Acquire(2, res_a_, LockMode::kShared).ok());
}

TEST_F(LockManagerTest, ReacquireAndUpgrade) {
  lm_.RegisterTxn(1, kNoTxn);
  ASSERT_TRUE(lm_.Acquire(1, res_a_, LockMode::kShared).ok());
  ASSERT_TRUE(lm_.Acquire(1, res_a_, LockMode::kShared).ok());
  ASSERT_TRUE(lm_.Acquire(1, res_a_, LockMode::kExclusive).ok());
  EXPECT_TRUE(lm_.Holds(1, res_a_, LockMode::kExclusive));
}

TEST_F(LockManagerTest, UpgradeBlockedByOtherReader) {
  lm_.RegisterTxn(1, kNoTxn);
  lm_.RegisterTxn(2, kNoTxn);
  ASSERT_TRUE(lm_.Acquire(1, res_a_, LockMode::kShared).ok());
  ASSERT_TRUE(lm_.Acquire(2, res_a_, LockMode::kShared).ok());
  EXPECT_TRUE(
      lm_.Acquire(1, res_a_, LockMode::kExclusive, 20000).IsTimedOut());
  lm_.ReleaseAll(2);
  EXPECT_TRUE(lm_.Acquire(1, res_a_, LockMode::kExclusive).ok());
}

TEST_F(LockManagerTest, ChildMayUseAncestorLocks) {
  lm_.RegisterTxn(1, kNoTxn);
  lm_.RegisterTxn(2, 1);  // child of 1
  lm_.RegisterTxn(3, 2);  // grandchild
  ASSERT_TRUE(lm_.Acquire(1, res_a_, LockMode::kExclusive).ok());
  // Moss rule: conflicting holders that are ancestors do not block.
  EXPECT_TRUE(lm_.Acquire(2, res_a_, LockMode::kExclusive).ok());
  EXPECT_TRUE(lm_.Acquire(3, res_a_, LockMode::kShared).ok());
}

TEST_F(LockManagerTest, ParentBlockedByActiveChildLock) {
  lm_.RegisterTxn(1, kNoTxn);
  lm_.RegisterTxn(2, 1);
  ASSERT_TRUE(lm_.Acquire(2, res_a_, LockMode::kExclusive).ok());
  // The parent is NOT an ancestor of itself w.r.t. the child's lock.
  EXPECT_TRUE(
      lm_.Acquire(1, res_a_, LockMode::kExclusive, 20000).IsTimedOut());
  // After lock transfer (subcommit), the parent holds it.
  lm_.TransferLocks(2, 1);
  EXPECT_TRUE(lm_.Acquire(1, res_a_, LockMode::kExclusive).ok());
}

TEST_F(LockManagerTest, TransferMergesModes) {
  lm_.RegisterTxn(1, kNoTxn);
  lm_.RegisterTxn(2, 1);
  ASSERT_TRUE(lm_.Acquire(1, res_a_, LockMode::kShared).ok());
  ASSERT_TRUE(lm_.Acquire(2, res_a_, LockMode::kExclusive).ok());
  lm_.TransferLocks(2, 1);
  EXPECT_TRUE(lm_.Holds(1, res_a_, LockMode::kExclusive));
}

TEST_F(LockManagerTest, DeadlockDetected) {
  lm_.RegisterTxn(1, kNoTxn);
  lm_.RegisterTxn(2, kNoTxn);
  ASSERT_TRUE(lm_.Acquire(1, res_a_, LockMode::kExclusive).ok());
  ASSERT_TRUE(lm_.Acquire(2, res_b_, LockMode::kExclusive).ok());

  std::atomic<bool> t2_blocked{false};
  std::thread t2([&] {
    t2_blocked = true;
    // Blocks: txn 2 wants a (held by 1).
    Status st = lm_.Acquire(2, res_a_, LockMode::kExclusive);
    // Woken when txn 1 releases after its own deadlock abort.
    (void)st;
  });
  while (!t2_blocked) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // txn 1 wants b (held by 2, which waits for 1) -> cycle -> abort.
  Status st = lm_.Acquire(1, res_b_, LockMode::kExclusive);
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  EXPECT_GE(lm_.deadlocks_detected(), 1u);
  lm_.ReleaseAll(1);
  t2.join();
  lm_.ReleaseAll(2);
}

// Two siblings holding S both upgrade to X: the second closes the cycle and
// is refused; the lock manager names the sibling it lost to, so a caller can
// tell this Aborted apart from its own and wait for the winner.
TEST_F(LockManagerTest, DeadlockVictimKnowsTheWinner) {
  lm_.RegisterTxn(1, kNoTxn);
  lm_.RegisterTxn(2, 1);
  lm_.RegisterTxn(3, 1);
  ASSERT_TRUE(lm_.Acquire(2, res_a_, LockMode::kShared).ok());
  ASSERT_TRUE(lm_.Acquire(3, res_a_, LockMode::kShared).ok());

  std::atomic<bool> t2_blocked{false};
  Status t2_st;
  std::thread t2([&] {
    t2_blocked = true;
    t2_st = lm_.Acquire(2, res_a_, LockMode::kExclusive);  // waits for 3
  });
  while (!t2_blocked) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Status st = lm_.Acquire(3, res_a_, LockMode::kExclusive);
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  EXPECT_EQ(lm_.DeadlockPartner(3), 2u);
  EXPECT_EQ(lm_.DeadlockPartner(2), kNoTxn);

  lm_.ReleaseAll(3);
  lm_.UnregisterTxn(3);
  EXPECT_EQ(lm_.DeadlockPartner(3), kNoTxn);
  t2.join();
  EXPECT_TRUE(t2_st.ok()) << t2_st.ToString();
  lm_.AwaitNotWaiting(2, /*timeout_us=*/10'000'000);  // already granted
  EXPECT_TRUE(lm_.Holds(2, res_a_, LockMode::kExclusive));
}

TEST_F(LockManagerTest, ContendedHandoff) {
  lm_.RegisterTxn(1, kNoTxn);
  ASSERT_TRUE(lm_.Acquire(1, res_a_, LockMode::kExclusive).ok());
  std::atomic<int> acquired{0};
  std::vector<std::thread> waiters;
  for (TxnId t = 2; t <= 5; ++t) {
    lm_.RegisterTxn(t, kNoTxn);
    waiters.emplace_back([&, t] {
      ASSERT_TRUE(lm_.Acquire(t, res_a_, LockMode::kShared).ok());
      acquired.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(acquired.load(), 0);
  lm_.ReleaseAll(1);
  for (auto& w : waiters) w.join();
  EXPECT_EQ(acquired.load(), 4);
}

// Two workers of one transaction wait at once, each for its own resource.
// When the first is granted, the second's wait-for edge must survive: a
// cycle through the still-waiting worker is refused, not left to hang.
TEST_F(LockManagerTest, EveryWaitingWorkerKeepsItsEdge) {
  const Oid res_c{3, 0, 1};
  lm_.RegisterTxn(1, kNoTxn);  // the query, with two workers
  lm_.RegisterTxn(2, kNoTxn);  // a writer
  lm_.RegisterTxn(3, kNoTxn);  // another writer
  ASSERT_TRUE(lm_.Acquire(1, res_c, LockMode::kShared).ok());
  ASSERT_TRUE(lm_.Acquire(2, res_b_, LockMode::kExclusive).ok());
  ASSERT_TRUE(lm_.Acquire(3, res_a_, LockMode::kExclusive).ok());

  Status worker_a, worker_b;
  std::thread wb([&] {  // waits for txn 2
    worker_b = lm_.Acquire(1, res_b_, LockMode::kShared, 10'000'000);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::thread wa([&] {  // waits for txn 3
    worker_a = lm_.Acquire(1, res_a_, LockMode::kShared, 10'000'000);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  lm_.ReleaseAll(3);  // grants worker a
  wa.join();
  EXPECT_TRUE(worker_a.ok()) << worker_a.ToString();

  // Txn 2 wants c, held S by txn 1, whose worker b waits for txn 2. The
  // timeout only bounds the damage if the cycle goes unseen.
  Status st = lm_.Acquire(2, res_c, LockMode::kExclusive, 5'000'000);
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  EXPECT_EQ(lm_.DeadlockPartner(2), 1u);
  lm_.ReleaseAll(2);
  wb.join();
  EXPECT_TRUE(worker_b.ok()) << worker_b.ToString();
  lm_.ReleaseAll(1);
  EXPECT_EQ(lm_.locked_resources(), 0u);
}

// One worker of a transaction gives up while another of the same
// transaction still waits for the same resource: the resource stays in the
// table for the survivor, who is granted when the holder releases.
TEST_F(LockManagerTest, TimedOutWorkerLeavesItsSiblingWaiting) {
  lm_.RegisterTxn(1, kNoTxn);
  lm_.RegisterTxn(2, kNoTxn);
  ASSERT_TRUE(lm_.Acquire(2, res_a_, LockMode::kExclusive).ok());
  Status patient;
  std::thread waiter([&] {
    patient = lm_.Acquire(1, res_a_, LockMode::kShared, 10'000'000);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(
      lm_.Acquire(1, res_a_, LockMode::kShared, 20'000).IsTimedOut());
  lm_.ReleaseAll(2);
  waiter.join();
  EXPECT_TRUE(patient.ok()) << patient.ToString();
  EXPECT_TRUE(lm_.Holds(1, res_a_, LockMode::kShared));
  lm_.ReleaseAll(1);
  EXPECT_EQ(lm_.locked_resources(), 0u);
}

// Refused and timed-out requests leave no lock-table entry behind once the
// holders are gone, whether or not the requester holds other locks.
TEST_F(LockManagerTest, RefusedRequestsLeaveNoEntries) {
  lm_.RegisterTxn(1, kNoTxn);
  lm_.RegisterTxn(2, kNoTxn);
  ASSERT_TRUE(lm_.Acquire(1, res_a_, LockMode::kExclusive).ok());
  EXPECT_TRUE(lm_.Acquire(2, res_a_, LockMode::kShared, 0).IsTimedOut());
  EXPECT_TRUE(lm_.Acquire(2, res_a_, LockMode::kExclusive, 1000).IsTimedOut());
  ASSERT_TRUE(lm_.Acquire(2, res_b_, LockMode::kShared).ok());
  EXPECT_TRUE(lm_.Acquire(2, res_a_, LockMode::kShared, 1000).IsTimedOut());
  EXPECT_TRUE(
      lm_.Acquire(2, res_a_, LockMode::kIntentExclusive, 1000).IsTimedOut());
  EXPECT_TRUE(lm_.Holds(2, res_b_, LockMode::kShared));
  EXPECT_EQ(lm_.locked_resources(), 2u);
  lm_.ReleaseAll(1);
  lm_.ReleaseAll(2);
  EXPECT_EQ(lm_.locked_resources(), 0u);
}

// A holder whose S and IX meet holds X: it keeps out readers and updaters.
TEST_F(LockManagerTest, SharedJoinedWithIntentIsExclusive) {
  lm_.RegisterTxn(1, kNoTxn);
  lm_.RegisterTxn(2, kNoTxn);
  ASSERT_TRUE(lm_.Acquire(1, res_a_, LockMode::kShared).ok());
  EXPECT_FALSE(lm_.Holds(1, res_a_, LockMode::kIntentExclusive));
  ASSERT_TRUE(lm_.Acquire(1, res_a_, LockMode::kIntentExclusive).ok());
  EXPECT_TRUE(lm_.Holds(1, res_a_, LockMode::kExclusive));
  EXPECT_TRUE(lm_.Acquire(2, res_a_, LockMode::kShared, 20000).IsTimedOut());
  EXPECT_TRUE(lm_.Acquire(2, res_a_, LockMode::kIntentExclusive, 20000)
                  .IsTimedOut());

  // The same join from the other side: IX first, then S.
  ASSERT_TRUE(lm_.Acquire(2, res_b_, LockMode::kIntentExclusive).ok());
  EXPECT_TRUE(lm_.Holds(2, res_b_, LockMode::kIntentExclusive));
  EXPECT_FALSE(lm_.Holds(2, res_b_, LockMode::kShared));
  ASSERT_TRUE(lm_.Acquire(2, res_b_, LockMode::kShared).ok());
  EXPECT_TRUE(lm_.Holds(2, res_b_, LockMode::kExclusive));
  lm_.ReleaseAll(1);
  lm_.ReleaseAll(2);
  EXPECT_EQ(lm_.locked_resources(), 0u);
}

// A rule subtransaction updates a class its parent scanned: the child's IX
// is granted under the parent's S (Moss) and, on subcommit, joins it to X.
TEST_F(LockManagerTest, TransferJoinsChildIntentWithParentShared) {
  lm_.RegisterTxn(1, kNoTxn);
  lm_.RegisterTxn(2, 1);
  lm_.RegisterTxn(3, kNoTxn);
  ASSERT_TRUE(lm_.Acquire(1, res_a_, LockMode::kShared).ok());
  ASSERT_TRUE(lm_.Acquire(2, res_a_, LockMode::kIntentExclusive, 0).ok());
  lm_.TransferLocks(2, 1);
  lm_.UnregisterTxn(2);
  EXPECT_TRUE(lm_.Holds(1, res_a_, LockMode::kExclusive));
  EXPECT_TRUE(lm_.Acquire(3, res_a_, LockMode::kShared, 20000).IsTimedOut());
  EXPECT_TRUE(lm_.Acquire(3, res_a_, LockMode::kIntentExclusive, 20000)
                  .IsTimedOut());
  lm_.ReleaseAll(1);
  EXPECT_TRUE(lm_.Acquire(3, res_a_, LockMode::kShared).ok());
  lm_.ReleaseAll(3);
  EXPECT_EQ(lm_.locked_resources(), 0u);
}

// FIFO: a scan's S arriving while an updater's IX waits queues behind the
// IX, though it is compatible with the S already granted; the updater is
// granted first.
TEST_F(LockManagerTest, SharedQueuesBehindWaitingIntent) {
  lm_.RegisterTxn(1, kNoTxn);  // a scan in progress
  lm_.RegisterTxn(2, kNoTxn);  // a class updater
  lm_.RegisterTxn(3, kNoTxn);  // the next scan
  ASSERT_TRUE(lm_.Acquire(1, res_a_, LockMode::kShared).ok());
  Status updater, scan;
  std::thread t2([&] {
    updater = lm_.Acquire(2, res_a_, LockMode::kIntentExclusive, 10'000'000);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(lm_.Acquire(3, res_a_, LockMode::kShared, 20000).IsTimedOut());
  std::thread t3([&] {
    scan = lm_.Acquire(3, res_a_, LockMode::kShared, 10'000'000);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  lm_.ReleaseAll(1);
  t2.join();
  ASSERT_TRUE(updater.ok()) << updater.ToString();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(lm_.Holds(3, res_a_, LockMode::kShared));
  lm_.ReleaseAll(2);
  t3.join();
  EXPECT_TRUE(scan.ok()) << scan.ToString();
  EXPECT_TRUE(lm_.Holds(3, res_a_, LockMode::kShared));
  lm_.ReleaseAll(3);
  EXPECT_EQ(lm_.locked_resources(), 0u);
}

// A cycle whose one edge is a queued request, not a grant: txn 3 waits for
// txn 2 only because 2's IX is queued ahead of 3's S. Txn 1 closing the
// cycle is refused rather than left waiting. The timeout only bounds the
// damage if the cycle goes unseen.
TEST_F(LockManagerTest, CycleThroughQueuedRequestIsRefused) {
  lm_.RegisterTxn(1, kNoTxn);
  lm_.RegisterTxn(2, kNoTxn);
  lm_.RegisterTxn(3, kNoTxn);
  ASSERT_TRUE(lm_.Acquire(1, res_a_, LockMode::kShared).ok());
  ASSERT_TRUE(lm_.Acquire(3, res_b_, LockMode::kExclusive).ok());
  Status updater, scan;
  std::thread t2([&] {  // waits for txn 1's S
    updater = lm_.Acquire(2, res_a_, LockMode::kIntentExclusive, 10'000'000);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::thread t3([&] {  // queued behind txn 2
    scan = lm_.Acquire(3, res_a_, LockMode::kShared, 10'000'000);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto start = std::chrono::steady_clock::now();
  Status st = lm_.Acquire(1, res_b_, LockMode::kExclusive, 5'000'000);
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(4));
  EXPECT_EQ(lm_.DeadlockPartner(1), 3u);
  lm_.ReleaseAll(1);
  t2.join();
  EXPECT_TRUE(updater.ok()) << updater.ToString();
  lm_.ReleaseAll(2);
  t3.join();
  EXPECT_TRUE(scan.ok()) << scan.ToString();
  lm_.ReleaseAll(3);
  EXPECT_EQ(lm_.locked_resources(), 0u);
}

// A child of the S holder skips the queue: the IX queued ahead of it waits
// for the child's own parent, which cannot end before the child does.
TEST_F(LockManagerTest, ChildOfHolderSkipsTheQueue) {
  lm_.RegisterTxn(1, kNoTxn);
  lm_.RegisterTxn(2, 1);
  lm_.RegisterTxn(3, kNoTxn);
  ASSERT_TRUE(lm_.Acquire(1, res_a_, LockMode::kShared).ok());
  Status updater;
  std::thread t3([&] {
    updater = lm_.Acquire(3, res_a_, LockMode::kIntentExclusive, 10'000'000);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(lm_.Acquire(2, res_a_, LockMode::kShared, 0).ok());
  lm_.TransferLocks(2, 1);
  lm_.UnregisterTxn(2);
  lm_.ReleaseAll(1);
  t3.join();
  EXPECT_TRUE(updater.ok()) << updater.ToString();
  lm_.ReleaseAll(3);
  EXPECT_EQ(lm_.locked_resources(), 0u);
}

// A subtransaction's wait that reaches its own ancestor is a cycle: the
// ancestor keeps its locks until the child ends.
TEST_F(LockManagerTest, WaitReachingOwnAncestorIsRefused) {
  lm_.RegisterTxn(1, kNoTxn);  // scanned class a
  lm_.RegisterTxn(2, 1);       // its rule subtransaction
  lm_.RegisterTxn(3, kNoTxn);  // updated b, now wants to update a
  ASSERT_TRUE(lm_.Acquire(1, res_a_, LockMode::kShared).ok());
  ASSERT_TRUE(lm_.Acquire(3, res_b_, LockMode::kIntentExclusive).ok());
  Status updater;
  std::thread t3([&] {
    updater = lm_.Acquire(3, res_a_, LockMode::kIntentExclusive, 10'000'000);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Status st = lm_.Acquire(2, res_b_, LockMode::kShared, 5'000'000);
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  EXPECT_EQ(lm_.DeadlockPartner(2), 3u);
  lm_.ReleaseAll(2);
  lm_.UnregisterTxn(2);
  lm_.ReleaseAll(1);
  t3.join();
  EXPECT_TRUE(updater.ok()) << updater.ToString();
  lm_.ReleaseAll(3);
  EXPECT_EQ(lm_.locked_resources(), 0u);
}

// Parameterized lock-compatibility matrix: {held mode} x {requested mode}
// x {same txn / sibling / child}, over S, IX and X.
struct LockCase {
  LockMode held;
  LockMode requested;
  int relationship;  // 0 = same txn, 1 = sibling, 2 = child of holder
  bool granted;      // without waiting
};

class LockMatrixTest : public ::testing::TestWithParam<LockCase> {};

TEST_P(LockMatrixTest, CompatibilityMatrix) {
  const LockCase& c = GetParam();
  LockManager lm;
  Oid res{1, 0, 1};
  lm.RegisterTxn(1, kNoTxn);
  ASSERT_TRUE(lm.Acquire(1, res, c.held).ok());
  TxnId requester = 1;
  if (c.relationship == 1) {
    lm.RegisterTxn(2, kNoTxn);
    requester = 2;
  } else if (c.relationship == 2) {
    lm.RegisterTxn(2, 1);
    requester = 2;
  }
  Status st = lm.Acquire(requester, res, c.requested, /*timeout_us=*/10000);
  auto name = [](LockMode m) {
    return m == LockMode::kShared            ? "S"
           : m == LockMode::kIntentExclusive ? "IX"
                                             : "X";
  };
  EXPECT_EQ(st.ok(), c.granted)
      << "held=" << name(c.held) << " req=" << name(c.requested)
      << " rel=" << c.relationship << ": " << st.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, LockMatrixTest,
    ::testing::Values(
        // Same transaction: everything re-grants/upgrades.
        LockCase{LockMode::kShared, LockMode::kShared, 0, true},
        LockCase{LockMode::kShared, LockMode::kExclusive, 0, true},
        LockCase{LockMode::kExclusive, LockMode::kShared, 0, true},
        LockCase{LockMode::kExclusive, LockMode::kExclusive, 0, true},
        // Sibling transactions: only S-S is compatible.
        LockCase{LockMode::kShared, LockMode::kShared, 1, true},
        LockCase{LockMode::kShared, LockMode::kExclusive, 1, false},
        LockCase{LockMode::kExclusive, LockMode::kShared, 1, false},
        LockCase{LockMode::kExclusive, LockMode::kExclusive, 1, false},
        // Child of the holder (Moss): ancestors never block descendants.
        LockCase{LockMode::kShared, LockMode::kShared, 2, true},
        LockCase{LockMode::kShared, LockMode::kExclusive, 2, true},
        LockCase{LockMode::kExclusive, LockMode::kShared, 2, true},
        LockCase{LockMode::kExclusive, LockMode::kExclusive, 2, true},
        // Intention exclusive: same transaction joins, siblings share only
        // IX-IX, a child of the holder is never blocked.
        LockCase{LockMode::kShared, LockMode::kIntentExclusive, 0, true},
        LockCase{LockMode::kIntentExclusive, LockMode::kShared, 0, true},
        LockCase{LockMode::kIntentExclusive, LockMode::kIntentExclusive, 0,
                 true},
        LockCase{LockMode::kIntentExclusive, LockMode::kExclusive, 0, true},
        LockCase{LockMode::kExclusive, LockMode::kIntentExclusive, 0, true},
        LockCase{LockMode::kShared, LockMode::kIntentExclusive, 1, false},
        LockCase{LockMode::kIntentExclusive, LockMode::kShared, 1, false},
        LockCase{LockMode::kIntentExclusive, LockMode::kIntentExclusive, 1,
                 true},
        LockCase{LockMode::kIntentExclusive, LockMode::kExclusive, 1, false},
        LockCase{LockMode::kExclusive, LockMode::kIntentExclusive, 1, false},
        LockCase{LockMode::kShared, LockMode::kIntentExclusive, 2, true},
        LockCase{LockMode::kIntentExclusive, LockMode::kShared, 2, true},
        LockCase{LockMode::kIntentExclusive, LockMode::kIntentExclusive, 2,
                 true},
        LockCase{LockMode::kIntentExclusive, LockMode::kExclusive, 2, true},
        LockCase{LockMode::kExclusive, LockMode::kIntentExclusive, 2, true}));

// ---------------------------------------------------------------------------
// TransactionManager
// ---------------------------------------------------------------------------

class TxnManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto sm = StorageManager::Open(dir_.DbPath());
    ASSERT_TRUE(sm.ok());
    sm_ = std::move(*sm);
    tm_ = std::make_unique<TransactionManager>(sm_.get());
  }
  TempDir dir_;
  std::unique_ptr<StorageManager> sm_;
  std::unique_ptr<TransactionManager> tm_;
};

TEST_F(TxnManagerTest, CommitMakesChangesVisible) {
  auto txn = tm_->Begin();
  ASSERT_TRUE(txn.ok());
  auto oid = sm_->objects()->Insert(*txn, "data");
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(tm_->Commit(*txn).ok());
  EXPECT_EQ(*sm_->objects()->Read(*oid), "data");
  EXPECT_FALSE(tm_->IsActive(*txn));
  EXPECT_TRUE(*tm_->WaitForOutcome(*txn));
}

TEST_F(TxnManagerTest, AbortUndoesChanges) {
  auto setup = tm_->Begin();
  auto oid = sm_->objects()->Insert(*setup, "original");
  ASSERT_TRUE(tm_->Commit(*setup).ok());

  auto txn = tm_->Begin();
  ASSERT_TRUE(sm_->objects()->Update(*txn, *oid, "changed").ok());
  auto extra = sm_->objects()->Insert(*txn, "extra");
  ASSERT_TRUE(sm_->objects()->Delete(*txn, *oid).ok());
  ASSERT_TRUE(tm_->Abort(*txn).ok());

  EXPECT_EQ(*sm_->objects()->Read(*oid), "original");
  EXPECT_TRUE(sm_->objects()->Read(*extra).status().IsNotFound());
  EXPECT_FALSE(*tm_->WaitForOutcome(*txn));
}

// A slot freed by an unfinished delete is not another transaction's to
// reuse: undoing the delete restores the object beside the newcomer instead
// of over it. Once the deleter ends, the space is offered again.
TEST_F(TxnManagerTest, AbortedDeleteKeepsConcurrentInsert) {
  const std::string original(3000, 'o');
  auto setup = tm_->Begin();
  auto oid = sm_->objects()->Insert(*setup, original);
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(tm_->Commit(*setup).ok());

  auto deleter = tm_->Begin();
  ASSERT_TRUE(sm_->objects()->Delete(*deleter, *oid).ok());
  auto inserter = tm_->Begin();
  auto other = sm_->objects()->Insert(*inserter, std::string(3000, 'n'));
  ASSERT_TRUE(other.ok());
  EXPECT_NE(other->page, oid->page);
  ASSERT_TRUE(tm_->Commit(*inserter).ok());
  ASSERT_TRUE(tm_->Abort(*deleter).ok());
  EXPECT_EQ(*sm_->objects()->Read(*oid), original);
  EXPECT_EQ(*sm_->objects()->Read(*other), std::string(3000, 'n'));

  // A committed delete frees the page for the next inserter.
  auto again = tm_->Begin();
  ASSERT_TRUE(sm_->objects()->Delete(*again, *oid).ok());
  ASSERT_TRUE(tm_->Commit(*again).ok());
  auto reuse = tm_->Begin();
  auto next = sm_->objects()->Insert(*reuse, std::string(3000, 'r'));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->page, oid->page);
  ASSERT_TRUE(tm_->Commit(*reuse).ok());
}

// The same for a nested deleter: its freed space stays withheld after it
// commits into its parent, until the parent ends.
TEST_F(TxnManagerTest, NestedDeleteWithheldUntilTopLevelEnds) {
  auto setup = tm_->Begin();
  auto oid = sm_->objects()->Insert(*setup, std::string(3000, 'o'));
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(tm_->Commit(*setup).ok());

  auto parent = tm_->Begin();
  auto child = tm_->Begin(*parent);
  ASSERT_TRUE(sm_->objects()->Delete(*child, *oid).ok());
  ASSERT_TRUE(tm_->Commit(*child).ok());
  auto inserter = tm_->Begin();
  auto other = sm_->objects()->Insert(*inserter, std::string(3000, 'n'));
  ASSERT_TRUE(other.ok());
  EXPECT_NE(other->page, oid->page);
  ASSERT_TRUE(tm_->Commit(*inserter).ok());
  ASSERT_TRUE(tm_->Abort(*parent).ok());
  EXPECT_EQ(*sm_->objects()->Read(*oid), std::string(3000, 'o'));
  EXPECT_EQ(*sm_->objects()->Read(*other), std::string(3000, 'n'));
}

TEST_F(TxnManagerTest, NestedCommitMergesIntoParent) {
  auto parent = tm_->Begin();
  auto child = tm_->Begin(*parent);
  ASSERT_TRUE(child.ok());
  auto oid = sm_->objects()->Insert(*child, "from child");
  ASSERT_TRUE(tm_->Commit(*child).ok());
  // Parent abort must also undo the committed child's work.
  ASSERT_TRUE(tm_->Abort(*parent).ok());
  EXPECT_TRUE(sm_->objects()->Read(*oid).status().IsNotFound());
}

TEST_F(TxnManagerTest, NestedAbortSparesParent) {
  auto parent = tm_->Begin();
  auto p_oid = sm_->objects()->Insert(*parent, "parent data");
  auto child = tm_->Begin(*parent);
  auto c_oid = sm_->objects()->Insert(*child, "child data");
  ASSERT_TRUE(tm_->Abort(*child).ok());
  EXPECT_TRUE(sm_->objects()->Read(*c_oid).status().IsNotFound());
  EXPECT_TRUE(sm_->objects()->Read(*p_oid).ok());
  ASSERT_TRUE(tm_->Commit(*parent).ok());
  EXPECT_EQ(*sm_->objects()->Read(*p_oid), "parent data");
}

TEST_F(TxnManagerTest, CommitWithActiveChildRejected) {
  auto parent = tm_->Begin();
  auto child = tm_->Begin(*parent);
  EXPECT_TRUE(tm_->Commit(*parent).IsFailedPrecondition());
  ASSERT_TRUE(tm_->Commit(*child).ok());
  EXPECT_TRUE(tm_->Commit(*parent).ok());
}

TEST_F(TxnManagerTest, AbortCascadesToActiveChildren) {
  auto parent = tm_->Begin();
  auto child = tm_->Begin(*parent);
  auto grandchild = tm_->Begin(*child);
  auto oid = sm_->objects()->Insert(*grandchild, "deep");
  ASSERT_TRUE(tm_->Abort(*parent).ok());
  EXPECT_FALSE(tm_->IsActive(*child));
  EXPECT_FALSE(tm_->IsActive(*grandchild));
  EXPECT_TRUE(sm_->objects()->Read(*oid).status().IsNotFound());
}

TEST_F(TxnManagerTest, RootOfResolvesChain) {
  auto a = tm_->Begin();
  auto b = tm_->Begin(*a);
  auto c = tm_->Begin(*b);
  EXPECT_EQ(tm_->RootOf(*c), *a);
  EXPECT_EQ(tm_->RootOf(*a), *a);
}

TEST_F(TxnManagerTest, CommitDependencySatisfied) {
  auto trigger = tm_->Begin();
  auto dependent = tm_->Begin();
  ASSERT_TRUE(tm_->AddCommitDependency(*dependent, *trigger).ok());

  std::thread committer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ASSERT_TRUE(tm_->Commit(*trigger).ok());
  });
  // Blocks until the trigger commits, then succeeds.
  EXPECT_TRUE(tm_->Commit(*dependent).ok());
  committer.join();
}

TEST_F(TxnManagerTest, CommitDependencyViolatedAborts) {
  auto trigger = tm_->Begin();
  auto dependent = tm_->Begin();
  auto oid = sm_->objects()->Insert(*dependent, "speculative");
  ASSERT_TRUE(tm_->AddCommitDependency(*dependent, *trigger).ok());
  ASSERT_TRUE(tm_->Abort(*trigger).ok());
  Status st = tm_->Commit(*dependent);
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  EXPECT_TRUE(sm_->objects()->Read(*oid).status().IsNotFound());
}

TEST_F(TxnManagerTest, AbortDependencyExclusiveMode) {
  // Exclusive causally dependent: commits only if the trigger aborts.
  auto trigger1 = tm_->Begin();
  auto contingency1 = tm_->Begin();
  ASSERT_TRUE(tm_->AddAbortDependency(*contingency1, *trigger1).ok());
  ASSERT_TRUE(tm_->Abort(*trigger1).ok());
  EXPECT_TRUE(tm_->Commit(*contingency1).ok());

  auto trigger2 = tm_->Begin();
  auto contingency2 = tm_->Begin();
  ASSERT_TRUE(tm_->AddAbortDependency(*contingency2, *trigger2).ok());
  ASSERT_TRUE(tm_->Commit(*trigger2).ok());
  EXPECT_TRUE(tm_->Commit(*contingency2).IsAborted());
}

TEST_F(TxnManagerTest, PreCommitListenerFailureAborts) {
  class FailingListener : public TxnListener {
   public:
    Status OnPreCommit(TxnId) override {
      return Status::Internal("constraint violated");
    }
  };
  FailingListener listener;
  tm_->AddListener(&listener);
  auto txn = tm_->Begin();
  auto oid = sm_->objects()->Insert(*txn, "poisoned");
  EXPECT_TRUE(tm_->Commit(*txn).IsAborted());
  EXPECT_TRUE(sm_->objects()->Read(*oid).status().IsNotFound());
  tm_->RemoveListener(&listener);
}

TEST_F(TxnManagerTest, ListenerLifecycleCallbacks) {
  class Recorder : public TxnListener {
   public:
    void OnBegin(TxnId, TxnId) override { begins++; }
    void OnCommit(TxnId) override { commits++; }
    void OnAbort(TxnId) override { aborts++; }
    int begins = 0, commits = 0, aborts = 0;
  };
  Recorder rec;
  tm_->AddListener(&rec);
  auto a = tm_->Begin();
  ASSERT_TRUE(tm_->Commit(*a).ok());
  auto b = tm_->Begin();
  ASSERT_TRUE(tm_->Abort(*b).ok());
  EXPECT_EQ(rec.begins, 2);
  EXPECT_EQ(rec.commits, 1);
  EXPECT_EQ(rec.aborts, 1);
  tm_->RemoveListener(&rec);
}

TEST_F(TxnManagerTest, NestedWorkDurableAfterCrash) {
  Oid oid;
  {
    auto parent = tm_->Begin();
    auto child = tm_->Begin(*parent);
    auto r = sm_->objects()->Insert(*child, "nested durable");
    oid = *r;
    ASSERT_TRUE(tm_->Commit(*child).ok());
    ASSERT_TRUE(tm_->Commit(*parent).ok());
    // Crash without checkpoint.
    tm_.reset();
    sm_.reset();
  }
  auto sm = StorageManager::Open(dir_.DbPath());
  ASSERT_TRUE(sm.ok());
  EXPECT_EQ(*(*sm)->objects()->Read(oid), "nested durable");
}

TEST_F(TxnManagerTest, NestedLoserUndoneAfterCrash) {
  Oid oid;
  {
    auto parent = tm_->Begin();
    auto child = tm_->Begin(*parent);
    auto r = sm_->objects()->Insert(*child, "lost");
    oid = *r;
    ASSERT_TRUE(tm_->Commit(*child).ok());
    // Parent never commits; crash with pages flushed.
    ASSERT_TRUE(sm_->buffer_pool()->FlushAll().ok());
    tm_.reset();
    sm_.reset();
  }
  auto sm = StorageManager::Open(dir_.DbPath());
  ASSERT_TRUE(sm.ok());
  EXPECT_TRUE((*sm)->objects()->Read(oid).status().IsNotFound());
}

TEST_F(TxnManagerTest, WaitForOutcomeUnknownTxn) {
  EXPECT_TRUE(tm_->WaitForOutcome(9999).status().IsNotFound());
}

TEST_F(TxnManagerTest, WaitForOutcomeNeverMissesAFinishingTxn) {
  // A finished transaction leaves txns_ and enters outcomes_ atomically: a
  // waiter racing the finish (top-level commit, abort, nested commit) must
  // get the outcome, never NotFound. Each finisher publishes the id it is
  // about to finish together with the expected outcome (id << 1 | commit);
  // its waiter hammers WaitForOutcome on that id.
  constexpr int kFinishers = 4;
  constexpr int kPerFinisher = 3000;  // 12k transactions in all
  std::atomic<int> not_found{0};
  std::atomic<int> wrong_outcome{0};
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  for (int f = 0; f < kFinishers; ++f) {
    auto published = std::make_shared<std::atomic<uint64_t>>(0);
    threads.emplace_back([&, published] {
      while (done.load() < kFinishers) {
        const uint64_t p = published->load();
        if (p == 0) continue;
        auto outcome = tm_->WaitForOutcome(p >> 1);
        if (!outcome.ok()) {
          not_found++;
        } else if (*outcome != static_cast<bool>(p & 1)) {
          wrong_outcome++;
        }
      }
    });
    threads.emplace_back([&, f, published] {
      auto publish = [&](TxnId id, bool commit) {
        published->store(id << 1 | static_cast<uint64_t>(commit));
      };
      for (int i = 0; i < kPerFinisher; ++i) {
        auto root = tm_->Begin();
        Status st = root.status();
        if (!st.ok()) {
          ADD_FAILURE() << st.ToString();
          break;
        }
        switch ((i + f) % 3) {
          case 0:
            publish(*root, true);
            st = tm_->Commit(*root);
            break;
          case 1:
            publish(*root, false);
            st = tm_->Abort(*root);
            break;
          default: {
            auto child = tm_->Begin(*root);
            st = child.status();
            if (!st.ok()) break;
            publish(*child, true);
            st = tm_->Commit(*child);
            if (st.ok()) st = tm_->Commit(*root);
            break;
          }
        }
        if (!st.ok()) {
          ADD_FAILURE() << st.ToString();
          break;
        }
      }
      done++;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(not_found.load(), 0) << "WaitForOutcome lost a finishing txn";
  EXPECT_EQ(wrong_outcome.load(), 0);
  EXPECT_EQ(tm_->active_count(), 0u);
}

}  // namespace
}  // namespace reach
