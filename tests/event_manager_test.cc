// EventManager: sentry announcements -> occurrences, temporal events on a
// virtual clock, milestones, composite wiring, histories, quiesce.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/events/event_manager.h"
#include "oodb/session.h"
#include "test_util.h"

namespace reach {
namespace {

using reach::testing::TempDir;

class EventManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions opts;
    opts.clock = &clock_;
    auto db = Database::Open(dir_.DbPath(), opts);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    ASSERT_TRUE(db_->types()
                    ->RegisterClass(
                        ClassBuilder("River")
                            .Attribute("level", ValueType::kInt, Value(0))
                            .Attribute("temp", ValueType::kDouble, Value(20.0))
                            .Method("updateWaterLevel",
                                    [](Session& s, DbObject& self,
                                       const std::vector<Value>& args)
                                        -> Result<Value> {
                                      REACH_RETURN_IF_ERROR(s.SetAttr(
                                          self.oid(), "level", args[0]));
                                      return Value();
                                    })
                            .Build())
                    .ok());
    EventManagerOptions eopts;
    eopts.async_composition = false;  // deterministic for these tests
    em_ = std::make_unique<EventManager>(db_.get(), eopts);
  }

  void TearDown() override {
    em_.reset();
    db_.reset();
  }

  TempDir dir_;
  VirtualClock clock_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<EventManager> em_;
};

TEST_F(EventManagerTest, MethodEventDetectedThroughSession) {
  auto ev = em_->DefineMethodEvent("water", "River", "updateWaterLevel");
  ASSERT_TRUE(ev.ok());
  std::vector<EventOccurrencePtr> seen;
  em_->AddEventListener(*ev, [&](const EventOccurrencePtr& occ) {
    seen.push_back(occ);
  });

  Session s(db_.get());
  ASSERT_TRUE(s.Begin().ok());
  auto oid = s.PersistNew("River", {});
  ASSERT_TRUE(s.Invoke(*oid, "updateWaterLevel", {Value(35)}).ok());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0]->type, *ev);
  EXPECT_EQ(seen[0]->source, *oid);
  EXPECT_EQ(seen[0]->txn, s.current_txn());
  ASSERT_GE(seen[0]->params.size(), 1u);
  EXPECT_EQ(seen[0]->params[0], Value(35));
  ASSERT_TRUE(s.Commit().ok());
}

TEST_F(EventManagerTest, UnmonitoredMethodRaisesNothing) {
  // No event type registered: the session's sentry fast-path skips the
  // announcement entirely.
  Session s(db_.get());
  ASSERT_TRUE(s.Begin().ok());
  auto oid = s.PersistNew("River", {});
  uint64_t before = db_->bus()->useless_announcements() +
                    db_->bus()->useful_announcements();
  ASSERT_TRUE(s.Invoke(*oid, "updateWaterLevel", {Value(1)}).ok());
  // Only the state-change announcement inside the method could fire; the
  // method-after itself was suppressed by the Monitored() check.
  EXPECT_EQ(em_->signaled_count(), 0u);
  (void)before;
  ASSERT_TRUE(s.Commit().ok());
}

TEST_F(EventManagerTest, StateChangeEventCarriesOldAndNew) {
  auto ev = em_->DefineStateChangeEvent("level_change", "River", "level");
  ASSERT_TRUE(ev.ok());
  std::vector<EventOccurrencePtr> seen;
  em_->AddEventListener(*ev, [&](const EventOccurrencePtr& occ) {
    seen.push_back(occ);
  });
  Session s(db_.get());
  ASSERT_TRUE(s.Begin().ok());
  auto oid = s.PersistNew("River", {{"level", Value(10)}});
  ASSERT_TRUE(s.SetAttr(*oid, "level", Value(20)).ok());
  ASSERT_EQ(seen.size(), 1u);
  ASSERT_EQ(seen[0]->params.size(), 2u);
  EXPECT_EQ(seen[0]->params[0], Value(10));  // old
  EXPECT_EQ(seen[0]->params[1], Value(20));  // new
  ASSERT_TRUE(s.Commit().ok());
}

TEST_F(EventManagerTest, FlowEventsPersistDeleteCommitAbort) {
  auto persist_ev = em_->DefineFlowEvent("on_persist", SentryKind::kPersist,
                                         "River");
  auto delete_ev =
      em_->DefineFlowEvent("on_delete", SentryKind::kDelete, "River");
  auto commit_ev =
      em_->DefineFlowEvent("on_commit", SentryKind::kTxnCommit);
  auto abort_ev = em_->DefineFlowEvent("on_abort", SentryKind::kTxnAbort);
  std::atomic<int> persists{0}, deletes{0}, commits{0}, aborts{0};
  em_->AddEventListener(*persist_ev,
                        [&](const EventOccurrencePtr&) { persists++; });
  em_->AddEventListener(*delete_ev,
                        [&](const EventOccurrencePtr&) { deletes++; });
  em_->AddEventListener(*commit_ev,
                        [&](const EventOccurrencePtr&) { commits++; });
  em_->AddEventListener(*abort_ev,
                        [&](const EventOccurrencePtr&) { aborts++; });

  Session s(db_.get());
  ASSERT_TRUE(s.Begin().ok());
  auto oid = s.PersistNew("River", {});
  EXPECT_EQ(persists.load(), 1);
  ASSERT_TRUE(s.Delete(*oid).ok());
  EXPECT_EQ(deletes.load(), 1);
  ASSERT_TRUE(s.Commit().ok());
  EXPECT_EQ(commits.load(), 1);
  ASSERT_TRUE(s.Begin().ok());
  ASSERT_TRUE(s.Abort().ok());
  EXPECT_EQ(aborts.load(), 1);
}

TEST_F(EventManagerTest, DeletionTriggeredRulesSeeTheObject) {
  // §4: deletion rules were a layered-architecture pain point; in the
  // integrated system the delete event fires before storage reclaim.
  auto delete_ev =
      em_->DefineFlowEvent("del", SentryKind::kDelete, "River");
  std::atomic<bool> object_was_readable{false};
  Session reader(db_.get());
  em_->AddEventListener(*delete_ev, [&](const EventOccurrencePtr& occ) {
    // The announcing transaction still holds the X lock; read through it.
    reader.AdoptTxn(occ->txn);
    auto obj = reader.Fetch(occ->source);
    object_was_readable = obj.ok();
    reader.ReleaseTxn();
  });
  Session s(db_.get());
  ASSERT_TRUE(s.Begin().ok());
  auto oid = s.PersistNew("River", {{"level", Value(5)}});
  ASSERT_TRUE(s.Delete(*oid).ok());
  EXPECT_TRUE(object_was_readable.load());
  ASSERT_TRUE(s.Commit().ok());
}

TEST_F(EventManagerTest, AbsoluteTemporalEventFires) {
  auto ev = em_->DefineAbsoluteEvent("at_1000", 1000);
  ASSERT_TRUE(ev.ok());
  std::atomic<int> fired{0};
  em_->AddEventListener(*ev, [&](const EventOccurrencePtr& occ) {
    EXPECT_EQ(occ->txn, kNoTxn);
    fired++;
  });
  clock_.Advance(500);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(fired.load(), 0);
  clock_.Advance(600);  // now = 1100 >= 1000
  for (int i = 0; i < 100 && fired.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(fired.load(), 1);
}

TEST_F(EventManagerTest, PeriodicTemporalEventRepeats) {
  auto ev = em_->DefinePeriodicEvent("tick", 100);
  std::atomic<int> fired{0};
  em_->AddEventListener(*ev, [&](const EventOccurrencePtr&) { fired++; });
  for (int i = 0; i < 5; ++i) {
    clock_.Advance(100);
    for (int j = 0; j < 100 && fired.load() <= i; ++j) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  EXPECT_GE(fired.load(), 5);
}

TEST_F(EventManagerTest, RelativeEventFiresAfterAnchor) {
  auto anchor = em_->DefineMethodEvent("anchor", "River", "updateWaterLevel");
  auto rel = em_->DefineRelativeEvent("anchored", *anchor, 200);
  ASSERT_TRUE(rel.ok());
  std::atomic<int> fired{0};
  em_->AddEventListener(*rel, [&](const EventOccurrencePtr&) { fired++; });

  Session s(db_.get());
  ASSERT_TRUE(s.Begin().ok());
  auto oid = s.PersistNew("River", {});
  ASSERT_TRUE(s.Invoke(*oid, "updateWaterLevel", {Value(1)}).ok());
  ASSERT_TRUE(s.Commit().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(fired.load(), 0);
  clock_.Advance(250);
  for (int i = 0; i < 100 && fired.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(fired.load(), 1);
}

TEST_F(EventManagerTest, MilestoneFiresWhenMarkerMissed) {
  auto marker = em_->DefineMethodEvent("marker", "River", "updateWaterLevel");
  auto milestone = em_->DefineMilestone("deadline", *marker, 1000);
  ASSERT_TRUE(milestone.ok());
  std::atomic<int> missed{0};
  em_->AddEventListener(*milestone, [&](const EventOccurrencePtr& occ) {
    ASSERT_EQ(occ->params.size(), 1u);
    missed++;
  });

  // Transaction that never reaches the marker.
  Session s(db_.get());
  ASSERT_TRUE(s.Begin().ok());
  clock_.Advance(1100);
  for (int i = 0; i < 100 && missed.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(missed.load(), 1);
  ASSERT_TRUE(s.Commit().ok());
}

TEST_F(EventManagerTest, MilestoneSilentWhenMarkerReached) {
  auto marker = em_->DefineMethodEvent("marker", "River", "updateWaterLevel");
  auto milestone = em_->DefineMilestone("deadline", *marker, 1000);
  std::atomic<int> missed{0};
  em_->AddEventListener(*milestone,
                        [&](const EventOccurrencePtr&) { missed++; });

  Session s(db_.get());
  ASSERT_TRUE(s.Begin().ok());
  auto oid = s.PersistNew("River", {});
  ASSERT_TRUE(s.Invoke(*oid, "updateWaterLevel", {Value(1)}).ok());
  clock_.Advance(1100);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(missed.load(), 0);
  ASSERT_TRUE(s.Commit().ok());
}

TEST_F(EventManagerTest, MilestoneSilentWhenTxnFinished) {
  auto marker = em_->DefineMethodEvent("marker", "River", "updateWaterLevel");
  auto milestone = em_->DefineMilestone("deadline", *marker, 1000);
  std::atomic<int> missed{0};
  em_->AddEventListener(*milestone,
                        [&](const EventOccurrencePtr&) { missed++; });
  Session s(db_.get());
  ASSERT_TRUE(s.Begin().ok());
  ASSERT_TRUE(s.Commit().ok());  // finished before the deadline
  clock_.Advance(1100);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(missed.load(), 0);
}

TEST_F(EventManagerTest, CompositeDetectedAcrossSessionOperations) {
  auto level = em_->DefineStateChangeEvent("lvl", "River", "level");
  auto temp = em_->DefineStateChangeEvent("tmp", "River", "temp");
  auto both = em_->DefineComposite(
      "both", EventExpr::And(EventExpr::Prim(*level), EventExpr::Prim(*temp)),
      CompositeScope::kSingleTxn);
  ASSERT_TRUE(both.ok());
  std::vector<EventOccurrencePtr> seen;
  em_->AddEventListener(*both, [&](const EventOccurrencePtr& occ) {
    seen.push_back(occ);
  });

  Session s(db_.get());
  ASSERT_TRUE(s.Begin().ok());
  auto oid = s.PersistNew("River", {});
  ASSERT_TRUE(s.SetAttr(*oid, "level", Value(30)).ok());
  EXPECT_TRUE(seen.empty());
  ASSERT_TRUE(s.SetAttr(*oid, "temp", Value(26.0)).ok());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0]->type, *both);
  EXPECT_EQ(seen[0]->constituents.size(), 2u);
  EXPECT_EQ(seen[0]->txn, s.current_txn());
  ASSERT_TRUE(s.Commit().ok());
}

TEST_F(EventManagerTest, CompositeOfCompositesCascades) {
  auto level = em_->DefineStateChangeEvent("lvl", "River", "level");
  auto twice = em_->DefineComposite(
      "twice", EventExpr::History(EventExpr::Prim(*level), 2),
      CompositeScope::kSingleTxn);
  auto fourfold = em_->DefineComposite(
      "fourfold", EventExpr::History(EventExpr::Prim(*twice), 2),
      CompositeScope::kSingleTxn);
  ASSERT_TRUE(fourfold.ok());
  std::atomic<int> fired{0};
  em_->AddEventListener(*fourfold,
                        [&](const EventOccurrencePtr&) { fired++; });
  Session s(db_.get());
  ASSERT_TRUE(s.Begin().ok());
  auto oid = s.PersistNew("River", {});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(s.SetAttr(*oid, "level", Value(i)).ok());
  }
  EXPECT_EQ(fired.load(), 1);
  ASSERT_TRUE(s.Commit().ok());
}

TEST_F(EventManagerTest, EotCleansSingleTxnPartials) {
  auto level = em_->DefineStateChangeEvent("lvl", "River", "level");
  auto temp = em_->DefineStateChangeEvent("tmp", "River", "temp");
  auto both = em_->DefineComposite(
      "both", EventExpr::And(EventExpr::Prim(*level), EventExpr::Prim(*temp)),
      CompositeScope::kSingleTxn);
  Session s(db_.get());
  ASSERT_TRUE(s.Begin().ok());
  auto oid = s.PersistNew("River", {});
  ASSERT_TRUE(s.SetAttr(*oid, "level", Value(1)).ok());
  EXPECT_EQ(em_->LivePartials(), 1u);
  ASSERT_TRUE(s.Commit().ok());
  EXPECT_EQ(em_->LivePartials(), 0u);
  EXPECT_GE(em_->CompositorOf(*both)->stats().discarded_at_eot, 1u);
}

TEST_F(EventManagerTest, HistoriesMaintained) {
  auto level = em_->DefineStateChangeEvent("lvl", "River", "level");
  Session s(db_.get());
  ASSERT_TRUE(s.Begin().ok());
  auto oid = s.PersistNew("River", {});
  ASSERT_TRUE(s.SetAttr(*oid, "level", Value(1)).ok());
  ASSERT_TRUE(s.SetAttr(*oid, "level", Value(2)).ok());
  EXPECT_EQ(em_->HistoryOf(*level)->total(), 2u);
  // Global history is merged only after commit.
  em_->Quiesce();
  EXPECT_EQ(em_->global_history()->OfType(*level).size(), 0u);
  ASSERT_TRUE(s.Commit().ok());
  em_->Quiesce();
  EXPECT_EQ(em_->global_history()->OfType(*level).size(), 2u);
}

TEST_F(EventManagerTest, AbortedTxnEventsNotInGlobalHistory) {
  auto level = em_->DefineStateChangeEvent("lvl", "River", "level");
  Session s(db_.get());
  ASSERT_TRUE(s.Begin().ok());
  auto oid = s.PersistNew("River", {});
  ASSERT_TRUE(s.SetAttr(*oid, "level", Value(1)).ok());
  ASSERT_TRUE(s.Abort().ok());
  em_->Quiesce();
  EXPECT_EQ(em_->global_history()->OfType(*level).size(), 0u);
  EXPECT_EQ(em_->HistoryOf(*level)->total(), 1u);  // local history keeps it
}

// The global history keeps `history_capacity` committed occurrences per
// type: a type committed many times over is trimmed to its newest ones, a
// rare type keeps all of its own, and total() counts every committed one.
TEST_F(EventManagerTest, GlobalHistoryBoundedPerTypeByHistoryCapacity) {
  constexpr size_t kCapacity = 8;
  EventManagerOptions eopts;
  eopts.async_composition = false;
  eopts.history_capacity = kCapacity;
  em_.reset();
  em_ = std::make_unique<EventManager>(db_.get(), eopts);
  auto level = em_->DefineStateChangeEvent("lvl", "River", "level");
  auto temp = em_->DefineStateChangeEvent("tmp", "River", "temp");
  ASSERT_TRUE(level.ok() && temp.ok());

  Session s(db_.get());
  ASSERT_TRUE(s.Begin().ok());
  auto oid = s.PersistNew("River", {});
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(s.Commit().ok());

  uint64_t committed = 0;
  int64_t v = 0;
  // 40 transactions of 3 level updates; every fourth aborts. Three of the
  // committed ones also update temp once.
  for (int t = 0; t < 40; ++t) {
    const bool abort = t % 4 == 3;
    ASSERT_TRUE(s.Begin().ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(s.SetAttr(*oid, "level", Value(++v)).ok());
    }
    if (t % 10 == 0 || abort) {
      ASSERT_TRUE(s.SetAttr(*oid, "temp", Value(static_cast<double>(t))).ok());
      if (!abort) ++committed;
    }
    if (abort) {
      ASSERT_TRUE(s.Abort().ok());
    } else {
      ASSERT_TRUE(s.Commit().ok());
      committed += 3;
    }
  }
  em_->Quiesce();

  GlobalHistory* history = em_->global_history();
  // 30 committed transactions: 90 level updates, over 3x the capacity.
  ASSERT_EQ(committed, 94u);
  auto levels = history->OfType(*level);
  ASSERT_EQ(levels.size(), kCapacity);
  for (size_t i = 1; i < levels.size(); ++i) {
    EXPECT_LT(levels[i - 1]->sequence, levels[i]->sequence);
  }
  // The newest committed level update (transaction 38) is retained.
  EXPECT_EQ(levels.back()->params.back().as_int(), 3 * 39);
  EXPECT_EQ(history->OfType(*temp).size(), 4u);  // transactions 0,10,20,30
  EXPECT_EQ(history->size(), kCapacity + 4);
  EXPECT_EQ(history->total(), committed);
  // The local history saw the aborted occurrences too.
  EXPECT_EQ(em_->HistoryOf(*level)->total(), 120u);
}

// A single-transaction composite completed on a lane after its
// transaction's commit was announced still reaches the global history:
// the transaction's end runs on its lane, behind every task of it. The
// first h1 completion holds the only lane until the commit has returned,
// so the second h1 and the h2 completion arrive after it.
TEST_F(EventManagerTest, LateLaneCompositesReachGlobalHistory) {
  auto run = [&](bool async) {
    EventManagerOptions eopts;
    eopts.async_composition = async;
    eopts.composition_threads = 1;
    em_.reset();
    em_ = std::make_unique<EventManager>(db_.get(), eopts);
    auto level = em_->DefineStateChangeEvent("lvl", "River", "level");
    auto h1 = em_->DefineComposite(
        "h1", EventExpr::History(EventExpr::Prim(*level), 1),
        CompositeScope::kSingleTxn);
    auto h2 = em_->DefineComposite(
        "h2", EventExpr::History(EventExpr::Prim(*level), 2),
        CompositeScope::kSingleTxn);
    EXPECT_TRUE(h1.ok() && h2.ok());
    std::atomic<bool> committed{false};
    std::atomic<bool> gated{false};
    em_->AddEventListener(*h1, [&](const EventOccurrencePtr&) {
      if (!async || gated.exchange(true)) return;
      auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!committed && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    Session s(db_.get());
    EXPECT_TRUE(s.Begin().ok());
    auto oid = s.PersistNew("River", {});
    EXPECT_TRUE(s.SetAttr(*oid, "level", Value(1)).ok());
    EXPECT_TRUE(s.SetAttr(*oid, "level", Value(2)).ok());
    EXPECT_TRUE(s.Commit().ok());
    committed = true;
    em_->Quiesce();
    GlobalHistory* history = em_->global_history();
    return std::vector<size_t>{history->OfType(*level).size(),
                               history->OfType(*h1).size(),
                               history->OfType(*h2).size()};
  };
  std::vector<size_t> inline_counts = run(false);
  EXPECT_EQ(inline_counts, std::vector<size_t>({2, 2, 1}));
  EXPECT_EQ(run(true), inline_counts);
}

TEST_F(EventManagerTest, ExplicitRaise) {
  auto ev = em_->DefineMethodEvent("signal", "River", "userSignal");
  std::atomic<int> fired{0};
  em_->AddEventListener(*ev, [&](const EventOccurrencePtr&) { fired++; });
  ASSERT_TRUE(em_->Raise(*ev, kNoTxn, {Value(1)}).ok());
  EXPECT_EQ(fired.load(), 1);
  EXPECT_TRUE(em_->Raise(9999, kNoTxn).IsNotFound());
}

TEST_F(EventManagerTest, AsyncCompositionDeliversAfterQuiesce) {
  EventManagerOptions eopts;
  eopts.async_composition = true;
  auto em2 = std::make_unique<EventManager>(db_.get(), eopts);
  auto level = em2->DefineStateChangeEvent("lvl2", "River", "level");
  auto two = em2->DefineComposite(
      "two2", EventExpr::History(EventExpr::Prim(*level), 2),
      CompositeScope::kSingleTxn);
  std::atomic<int> fired{0};
  em2->AddEventListener(*two, [&](const EventOccurrencePtr&) { fired++; });
  Session s(db_.get());
  ASSERT_TRUE(s.Begin().ok());
  auto oid = s.PersistNew("River", {});
  ASSERT_TRUE(s.SetAttr(*oid, "level", Value(1)).ok());
  ASSERT_TRUE(s.SetAttr(*oid, "level", Value(2)).ok());
  em2->Quiesce();
  EXPECT_EQ(fired.load(), 1);
  ASSERT_TRUE(s.Commit().ok());
}

}  // namespace
}  // namespace reach
