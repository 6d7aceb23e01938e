// Concurrency suite for the lock-free event dispatch path (docs/EVENTS.md):
// concurrent Signal across many types and transactions, listener
// registration racing dispatch (snapshot republish vs readers), striped
// per-txn bookkeeping, the composition lanes, composition-equivalence
// between inline and lane composition, and the end-of-transaction sweep
// ordered behind a transaction's queued composition. Run under TSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/lane_pool.h"
#include "core/events/event_manager.h"
#include "test_util.h"

namespace reach {
namespace {

using reach::testing::TempDir;

class EventPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open(dir_.DbPath(), {});
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
  }

  std::unique_ptr<EventManager> Make(EventManagerOptions opts) {
    return std::make_unique<EventManager>(db_.get(), opts);
  }

  // Inject an occurrence with an explicit transaction and timestamp (the
  // dispatch path does not require a live TransactionManager txn).
  static void SignalOne(EventManager* em, EventTypeId type, TxnId txn,
                        Timestamp ts) {
    auto occ = std::make_shared<EventOccurrence>();
    occ->type = type;
    occ->txn = txn;
    occ->timestamp = ts;
    em->Signal(std::move(occ));
  }

  // End-of-transaction as the meta bus would announce it.
  static void Commit(EventManager* em, TxnId txn) {
    SentryEvent ev;
    ev.kind = SentryKind::kTxnCommit;
    ev.txn = txn;
    em->OnEvent(ev);
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
};

// -- LanePool unit coverage ------------------------------------------------

TEST(LanePoolTest, FifoPerKeyUnderConcurrentSubmitters) {
  // Each submitter owns a few keys and numbers its tasks per key; a lane
  // must run every key's tasks in submission order, and every task once.
  struct Item {
    uint64_t key;
    uint64_t n;
  };
  constexpr int kSubmitters = 4;
  constexpr uint64_t kKeysPerSubmitter = 8;
  constexpr uint64_t kPerKey = 500;
  constexpr uint64_t kKeys = kSubmitters * kKeysPerSubmitter;
  std::vector<uint64_t> next(kKeys, 0);  // touched only by the key's lane
  std::atomic<uint64_t> out_of_order{0};
  std::atomic<uint64_t> ran{0};
  LanePool<Item> pool(4, [&](Item& item) {
    if (next[item.key] != item.n) out_of_order.fetch_add(1);
    next[item.key] = item.n + 1;
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, s] {
      for (uint64_t n = 0; n < kPerKey; ++n) {
        for (uint64_t k = 0; k < kKeysPerSubmitter; ++k) {
          const uint64_t key = s * kKeysPerSubmitter + k;
          ASSERT_TRUE(pool.Submit(Item{key, n}, key));
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  pool.WaitIdle();
  EXPECT_EQ(out_of_order.load(), 0u);
  EXPECT_EQ(ran.load(), kKeys * kPerKey);
  EXPECT_EQ(pool.QueueDepth(), 0u);
  for (uint64_t key = 0; key < kKeys; ++key) EXPECT_EQ(next[key], kPerKey);
}

TEST(LanePoolTest, WaitIdleCoversRecursiveSubmits) {
  // A task submits its successor to another key's lane before it returns;
  // WaitIdle must not observe idle until the whole chain has run.
  std::atomic<int> ran{0};
  LanePool<int>* pool_ptr = nullptr;
  LanePool<int> pool(3, [&](int& depth) {
    if (depth > 0) {
      std::this_thread::yield();
      ASSERT_TRUE(pool_ptr->Submit(depth - 1, static_cast<uint64_t>(depth)));
    }
    ran.fetch_add(1);
  });
  pool_ptr = &pool;
  ASSERT_TRUE(pool.Submit(200, 0));
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 201);
}

TEST(LanePoolTest, ShutdownDrainsQueuedTasks) {
  // Tasks queued behind a slow one still run when Shutdown comes; after
  // it, Submit is refused and nothing runs.
  std::atomic<int> ran{0};
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  LanePool<int> pool(2, [&](int& v) {
    if (v == 0) {
      started.store(true);
      while (!release.load()) std::this_thread::yield();
    }
    ran.fetch_add(1);
  });
  ASSERT_TRUE(pool.Submit(0, 7));
  while (!started.load()) std::this_thread::yield();
  for (int i = 1; i < 100; ++i) ASSERT_TRUE(pool.Submit(i, 7));
  EXPECT_EQ(pool.QueueDepth(), 99u);  // the lane's worker is busy
  std::thread closer([&pool] { pool.Shutdown(); });
  release.store(true);
  closer.join();
  EXPECT_EQ(ran.load(), 100);
  EXPECT_FALSE(pool.Submit(1, 7));
  pool.Shutdown();  // idempotent
  EXPECT_EQ(ran.load(), 100);
}

// -- Concurrent dispatch stress --------------------------------------------

TEST_F(EventPipelineTest, ConcurrentSignalWithRacingRegistration) {
  EventManagerOptions opts;
  opts.composition_threads = 2;
  auto em = Make(opts);

  constexpr int kTypes = 8;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  constexpr TxnId kTxns = 16;

  std::vector<EventTypeId> types;
  for (int t = 0; t < kTypes; ++t) {
    auto id = em->DefineMethodEvent("p" + std::to_string(t), "C",
                                    "m" + std::to_string(t));
    ASSERT_TRUE(id.ok());
    types.push_back(*id);
    // Bounded-buffer composite per type: completes every 4th occurrence,
    // single-txn scope so instances stripe over transactions.
    auto comp = em->DefineComposite(
        "h" + std::to_string(t),
        EventExpr::History(EventExpr::Prim(*id), 4),
        CompositeScope::kSingleTxn);
    ASSERT_TRUE(comp.ok());
  }

  std::atomic<uint64_t> listener_hits{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kPerThread; ++i) {
        const EventTypeId type = types[(w + i) % kTypes];
        const TxnId txn = static_cast<TxnId>((w * kPerThread + i) % kTxns) + 1;
        SignalOne(em.get(), type, txn, i + 1);
      }
    });
  }
  // Listener registration (snapshot republish) racing the dispatchers.
  threads.emplace_back([&] {
    for (int i = 0; i < 64; ++i) {
      em->AddEventListener(types[i % kTypes],
                           [&](const EventOccurrencePtr&) {
                             listener_hits.fetch_add(
                                 1, std::memory_order_relaxed);
                           });
      std::this_thread::yield();
    }
  });
  for (auto& t : threads) t.join();
  em->Quiesce();

  const uint64_t primitives = kThreads * kPerThread;
  // Every Signal (primitive or composite completion) is counted once.
  EXPECT_EQ(em->signaled_count(), primitives + em->composite_count());
  // Each (type, txn) instance completes every 4th feed; with the feeds
  // spread evenly the total is within one completion per instance.
  EXPECT_GT(em->composite_count(), 0u);
  EXPECT_LE(em->composite_count(), primitives / 4);
  EXPECT_GE(em->dispatch_republish_count(), 64u + 2 * kTypes);

  // EOT GC across all striped instance maps.
  for (TxnId txn = 1; txn <= kTxns; ++txn) Commit(em.get(), txn);
  em->Quiesce();
  EXPECT_EQ(em->LivePartials(), 0u);
}

TEST_F(EventPipelineTest, StripedTxnBookkeepingMergesOnlyCommitted) {
  EventManagerOptions opts;
  auto em = Make(opts);
  auto id = em->DefineMethodEvent("pp", "C", "mm");
  ASSERT_TRUE(id.ok());

  constexpr TxnId kTxns = 40;  // spans all 16 shards multiple times
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&, w] {
      for (TxnId txn = 1; txn <= kTxns; ++txn) {
        for (int i = 0; i < 5; ++i) {
          SignalOne(em.get(), *id, txn, static_cast<Timestamp>(100 * w + i));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // Commit even transactions, abort odd ones.
  for (TxnId txn = 1; txn <= kTxns; ++txn) {
    if (txn % 2 == 0) {
      Commit(em.get(), txn);
    } else {
      SentryEvent ev;
      ev.kind = SentryKind::kTxnAbort;
      ev.txn = txn;
      em->OnEvent(ev);
    }
  }
  em->Quiesce();
  // 4 threads x 20 committed txns x 5 events.
  EXPECT_EQ(em->global_history()->size(), 4u * (kTxns / 2) * 5u);
}

// -- Composition equivalence: inline vs lanes ------------------------------

// Run the same deterministic feed inline and on the lanes and demand
// identical composite completions. Each transaction's occurrences share one
// FIFO lane, so even the order-sensitive Seq holds at four lanes.
struct Completions {
  std::mutex mu;
  std::map<TxnId, int> per_txn;
};

TEST_F(EventPipelineTest, SequenceEquivalenceInlineVsLanes) {
  for (ConsumptionPolicy policy :
       {ConsumptionPolicy::kChronicle, ConsumptionPolicy::kRecent}) {
    std::vector<std::map<TxnId, int>> results;
    for (bool async : {false, true}) {
      EventManagerOptions opts;
      opts.async_composition = async;
      opts.composition_threads = 4;
      auto em = Make(opts);
      auto a = em->DefineMethodEvent("ea", "C", "a");
      auto b = em->DefineMethodEvent("eb", "C", "b");
      ASSERT_TRUE(a.ok() && b.ok());
      auto comp = em->DefineComposite(
          "seq_ab", EventExpr::Seq(EventExpr::Prim(*a), EventExpr::Prim(*b)),
          CompositeScope::kSingleTxn, policy);
      ASSERT_TRUE(comp.ok());
      Completions done;
      em->AddEventListener(*comp, [&](const EventOccurrencePtr& occ) {
        std::lock_guard<std::mutex> lock(done.mu);
        done.per_txn[occ->txn]++;
      });
      Timestamp ts = 0;
      for (TxnId txn = 1; txn <= 20; ++txn) {
        for (int k = 0; k < 5; ++k) {
          SignalOne(em.get(), *a, txn, ++ts);
          SignalOne(em.get(), *b, txn, ++ts);
        }
      }
      em->Quiesce();
      for (TxnId txn = 1; txn <= 20; ++txn) Commit(em.get(), txn);
      em->Quiesce();
      EXPECT_EQ(em->LivePartials(), 0u);
      results.push_back(done.per_txn);
    }
    // With a strictly alternating a, b feed, both policies pair each a with
    // the b that follows it: 5 completions per transaction.
    for (const auto& [txn, count] : results[0]) EXPECT_EQ(count, 5) << txn;
    EXPECT_EQ(results[0], results[1]);
  }
}

TEST_F(EventPipelineTest, HistoryEquivalenceUnderParallelComposition) {
  // Order-insensitive composite, four lanes, concurrent producers:
  // completion counts must still match the inline reference exactly.
  std::vector<std::map<TxnId, int>> results;
  for (bool async : {false, true}) {
    EventManagerOptions opts;
    opts.async_composition = async;
    opts.composition_threads = async ? 4 : 1;
    auto em = Make(opts);
    auto id = em->DefineMethodEvent("eh", "C", "h");
    ASSERT_TRUE(id.ok());
    auto comp = em->DefineComposite(
        "hist8", EventExpr::History(EventExpr::Prim(*id), 8),
        CompositeScope::kSingleTxn);
    ASSERT_TRUE(comp.ok());
    Completions done;
    em->AddEventListener(*comp, [&](const EventOccurrencePtr& occ) {
      std::lock_guard<std::mutex> lock(done.mu);
      done.per_txn[occ->txn]++;
    });
    // 4 producers, each with its own transactions: per-txn feed counts are
    // deterministic even though global interleaving is not.
    std::vector<std::thread> producers;
    for (int w = 0; w < 4; ++w) {
      producers.emplace_back([&, w] {
        for (int i = 0; i < 400; ++i) {
          SignalOne(em.get(), *id, static_cast<TxnId>(w * 10 + i % 10) + 1,
                    i + 1);
        }
      });
    }
    for (auto& t : producers) t.join();
    em->Quiesce();
    results.push_back(done.per_txn);
    for (TxnId txn = 1; txn <= 40; ++txn) Commit(em.get(), txn);
    em->Quiesce();
    EXPECT_EQ(em->LivePartials(), 0u);
  }
  // 40 occurrences per (producer, txn) -> exactly 5 completions each.
  for (const auto& [txn, count] : results[0]) EXPECT_EQ(count, 5) << txn;
  EXPECT_EQ(results[0], results[1]);
}

// End of transaction announced while the transaction's composition is
// still queued, with no Quiesce in between (no deferred rule forces one).
// The sweep of the transaction's single-txn instances must run after every
// one of its occurrences: otherwise a late occurrence re-creates the
// instance after EOT, it is never swept, and its partial leaks.
TEST_F(EventPipelineTest, EotSweepRunsAfterQueuedComposition) {
  constexpr TxnId kTxns = 200;
  constexpr int kPerTxn = 33;  // History(x, 2): 16 completions + 1 partial
  EventManagerOptions opts;
  opts.composition_threads = 4;
  auto em = Make(opts);
  auto x = em->DefineMethodEvent("ex", "C", "x");
  ASSERT_TRUE(x.ok());
  auto comp = em->DefineComposite(
      "pair", EventExpr::History(EventExpr::Prim(*x), 2),
      CompositeScope::kSingleTxn);
  ASSERT_TRUE(comp.ok());
  // Per transaction: the timestamps of each completion's constituents.
  std::mutex mu;
  std::map<TxnId, std::vector<std::vector<Timestamp>>> done;
  em->AddEventListener(*comp, [&](const EventOccurrencePtr& occ) {
    std::vector<Timestamp> parts;
    for (const auto& c : occ->constituents) parts.push_back(c->timestamp);
    std::lock_guard<std::mutex> lock(mu);
    done[occ->txn].push_back(std::move(parts));
  });
  for (TxnId txn = 1; txn <= kTxns; ++txn) {
    for (int i = 1; i <= kPerTxn; ++i) SignalOne(em.get(), *x, txn, i);
    Commit(em.get(), txn);
  }
  em->Quiesce();
  EXPECT_EQ(em->LivePartials(), 0u);
  // Every transaction left exactly its one trailing partial to the sweep.
  EXPECT_EQ(em->CompositorOf(*comp)->stats().discarded_at_eot, kTxns);
  // Completions pair occurrences (1,2), (3,4), ... (31,32) in order: a
  // sweep that overtook queued occurrences would shift or drop pairs.
  ASSERT_EQ(done.size(), kTxns);
  for (const auto& [txn, completions] : done) {
    ASSERT_EQ(completions.size(), static_cast<size_t>(kPerTxn / 2)) << txn;
    for (size_t k = 0; k < completions.size(); ++k) {
      const std::vector<Timestamp> want = {static_cast<Timestamp>(2 * k + 1),
                                           static_cast<Timestamp>(2 * k + 2)};
      EXPECT_EQ(completions[k], want) << "txn " << txn << " completion " << k;
    }
  }
}

}  // namespace
}  // namespace reach
