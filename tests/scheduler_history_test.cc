// TemporalScheduler, event histories, and the function registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "core/events/event_history.h"
#include "core/events/temporal_scheduler.h"
#include "core/rules/function_registry.h"

namespace reach {
namespace {

class SchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scheduler_ = std::make_unique<TemporalScheduler>(&clock_);
    scheduler_->Start();
  }
  void TearDown() override { scheduler_->Stop(); }

  void WaitForFires(uint64_t n) {
    for (int i = 0; i < 500 && scheduler_->fired_count() < n; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  VirtualClock clock_;
  std::unique_ptr<TemporalScheduler> scheduler_;
};

TEST_F(SchedulerTest, OneShotFiresAtDeadline) {
  std::atomic<Timestamp> fired_at{-1};
  scheduler_->ScheduleAt(1000, [&](Timestamp t) { fired_at = t; });
  clock_.Advance(999);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(fired_at.load(), -1);
  clock_.Advance(1);
  WaitForFires(1);
  EXPECT_EQ(fired_at.load(), 1000);
}

TEST_F(SchedulerTest, PastDeadlineFiresImmediately) {
  clock_.Advance(5000);
  std::atomic<int> fired{0};
  scheduler_->ScheduleAt(1000, [&](Timestamp) { fired++; });
  WaitForFires(1);
  EXPECT_EQ(fired.load(), 1);
}

TEST_F(SchedulerTest, TimersFireInDeadlineOrder) {
  std::vector<int> order;
  std::mutex mu;
  scheduler_->ScheduleAt(300, [&](Timestamp) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(3);
  });
  scheduler_->ScheduleAt(100, [&](Timestamp) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(1);
  });
  scheduler_->ScheduleAt(200, [&](Timestamp) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(2);
  });
  clock_.Advance(400);
  WaitForFires(3);
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(SchedulerTest, PeriodicRepeatsAtFixedIntervals) {
  std::vector<Timestamp> fires;
  std::mutex mu;
  scheduler_->SchedulePeriodic(100, [&](Timestamp t) {
    std::lock_guard<std::mutex> lock(mu);
    fires.push_back(t);
  });
  clock_.Advance(350);
  WaitForFires(3);
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_GE(fires.size(), 3u);
  EXPECT_EQ(fires[0], 100);
  EXPECT_EQ(fires[1], 200);
  EXPECT_EQ(fires[2], 300);
}

TEST_F(SchedulerTest, StopIsIdempotentAndJoins) {
  scheduler_->ScheduleAt(1LL << 50, [](Timestamp) {});
  scheduler_->Stop();
  scheduler_->Stop();
  EXPECT_EQ(scheduler_->pending_timers(), 1u);  // never fired
}

TEST(LocalHistoryTest, RingBufferBoundsSize) {
  LocalHistory history(4);
  for (uint64_t i = 1; i <= 10; ++i) {
    auto occ = std::make_shared<EventOccurrence>();
    occ->sequence = i;
    history.Append(occ);
  }
  EXPECT_EQ(history.total(), 10u);
  EXPECT_EQ(history.size(), 4u);
  auto snap = history.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front()->sequence, 7u);  // oldest kept
  EXPECT_EQ(snap.back()->sequence, 10u);
}

TEST(GlobalHistoryTest, MergesStaySorted) {
  GlobalHistory history;
  auto make = [](uint64_t seq, EventTypeId type) {
    auto occ = std::make_shared<EventOccurrence>();
    occ->sequence = seq;
    occ->type = type;
    return occ;
  };
  history.Merge({make(5, 1), make(6, 2)});
  history.Merge({make(1, 1), make(3, 1)});
  history.Merge({make(2, 2), make(4, 2)});
  auto snap = history.Snapshot();
  ASSERT_EQ(snap.size(), 6u);
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1]->sequence, snap[i]->sequence);
  }
  EXPECT_EQ(history.OfType(1).size(), 3u);
  EXPECT_EQ(history.OfType(2).size(), 3u);
  EXPECT_EQ(history.merge_batches(), 3u);
}

// Each type keeps its newest `capacity` occurrences in sequence order, no
// matter how the batches interleave; a hot type never evicts a cold one.
TEST(GlobalHistoryTest, BoundedPerTypeAcrossOutOfOrderMerges) {
  constexpr EventTypeId kHot = 1, kCold = 2;
  GlobalHistory history(/*capacity=*/4);
  auto make = [](uint64_t seq, EventTypeId type) {
    auto occ = std::make_shared<EventOccurrence>();
    occ->sequence = seq;
    occ->type = type;
    return occ;
  };
  auto sequences = [](const std::vector<EventOccurrencePtr>& events) {
    std::vector<uint64_t> out;
    for (const auto& e : events) out.push_back(e->sequence);
    return out;
  };
  // Hot: 3..12, merged out of order and interleaved with cold 1 and 2.
  history.Merge({make(9, kHot), make(1, kCold), make(7, kHot)});
  history.Merge({make(12, kHot), make(11, kHot), make(10, kHot)});
  history.Merge({make(3, kHot), make(8, kHot)});
  history.Merge({make(5, kHot), make(2, kCold), make(6, kHot)});
  history.Merge({make(4, kHot)});

  EXPECT_EQ(sequences(history.OfType(kHot)),
            (std::vector<uint64_t>{9, 10, 11, 12}));
  EXPECT_EQ(sequences(history.OfType(kCold)), (std::vector<uint64_t>{1, 2}));
  EXPECT_TRUE(history.OfType(3).empty());
  EXPECT_EQ(history.size(), 6u);
  EXPECT_EQ(history.total(), 12u);
  EXPECT_EQ(history.merge_batches(), 5u);
  EXPECT_EQ(sequences(history.Snapshot()),
            (std::vector<uint64_t>{1, 2, 9, 10, 11, 12}));

  // A late batch older than everything retained is evicted on arrival.
  history.Merge({make(0, kHot)});
  EXPECT_EQ(sequences(history.OfType(kHot)),
            (std::vector<uint64_t>{9, 10, 11, 12}));
  EXPECT_EQ(history.size(), 6u);
  EXPECT_EQ(history.total(), 13u);
}

// Batches of concurrent transactions interleave with the retained tail of
// each ring: whatever the interleaving, each type holds exactly its newest
// `capacity` sequences, as one sort of everything merged would give.
TEST(GlobalHistoryTest, InterleavedBatchesMatchReference) {
  constexpr size_t kCapacity = 16;
  GlobalHistory history(kCapacity);
  std::mt19937 rng(7);
  std::vector<uint64_t> sequences(600);
  std::iota(sequences.begin(), sequences.end(), 1);
  std::shuffle(sequences.begin(), sequences.end(), rng);
  std::map<EventTypeId, std::vector<uint64_t>> all;
  for (size_t i = 0; i < sequences.size();) {
    const size_t n = std::min<size_t>(1 + rng() % 40, sequences.size() - i);
    std::vector<EventOccurrencePtr> batch;
    for (size_t j = 0; j < n; ++j, ++i) {
      auto occ = std::make_shared<EventOccurrence>();
      occ->sequence = sequences[i];
      occ->type = static_cast<EventTypeId>(1 + sequences[i] % 3);
      all[occ->type].push_back(occ->sequence);
      batch.push_back(std::move(occ));
    }
    history.Merge(std::move(batch));
  }
  size_t retained = 0;
  for (auto& [type, seqs] : all) {
    std::sort(seqs.begin(), seqs.end());
    std::vector<uint64_t> expected(seqs.end() - kCapacity, seqs.end());
    std::vector<uint64_t> got;
    for (const auto& e : history.OfType(type)) got.push_back(e->sequence);
    EXPECT_EQ(got, expected) << "type " << type;
    retained += expected.size();
  }
  EXPECT_EQ(history.size(), retained);
  EXPECT_EQ(history.total(), sequences.size());
}

TEST(FunctionRegistryTest, NamingConventionResolution) {
  FunctionRegistry registry;
  ASSERT_TRUE(registry
                  .RegisterCondition("WaterLevelCond",
                                     [](Session&, const EventOccurrence&)
                                         -> Result<bool> { return true; })
                  .ok());
  ASSERT_TRUE(registry
                  .RegisterAction("WaterLevelAction",
                                  [](Session&, const EventOccurrence&) {
                                    return Status::OK();
                                  })
                  .ok());
  EXPECT_NE(registry.ConditionForRule("WaterLevel"), nullptr);
  EXPECT_NE(registry.ActionForRule("WaterLevel"), nullptr);
  EXPECT_EQ(registry.ConditionForRule("Other"), nullptr);
  EXPECT_EQ(registry.ActionForRule("Other"), nullptr);
  EXPECT_TRUE(registry
                  .RegisterCondition("WaterLevelCond",
                                     [](Session&, const EventOccurrence&)
                                         -> Result<bool> { return false; })
                  .IsAlreadyExists());
  EXPECT_EQ(registry.ConditionNames().size(), 1u);
  EXPECT_EQ(registry.ActionNames().size(), 1u);
}

}  // namespace
}  // namespace reach
