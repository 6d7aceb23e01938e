#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "common/clock.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/types.h"

namespace reach {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing thing");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.message(), "missing thing");
  EXPECT_EQ(st.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, AllCodesDistinct) {
  std::set<std::string> names = {
      Status::OK().ToString(),
      Status::NotFound("").ToString(),
      Status::AlreadyExists("").ToString(),
      Status::InvalidArgument("").ToString(),
      Status::NotSupported("").ToString(),
      Status::Aborted("").ToString(),
      Status::Busy("").ToString(),
      Status::Corruption("").ToString(),
      Status::IoError("").ToString(),
      Status::OutOfRange("").ToString(),
      Status::FailedPrecondition("").ToString(),
      Status::TimedOut("").ToString(),
      Status::Internal("").ToString(),
  };
  EXPECT_EQ(names.size(), 13u);
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto fails = []() -> Status { return Status::IoError("disk"); };
  auto wrapper = [&]() -> Status {
    REACH_RETURN_IF_ERROR(fails());
    return Status::Internal("unreachable");
  };
  EXPECT_TRUE(wrapper().IsIoError());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto produce = [](bool ok) -> Result<int> {
    if (ok) return 5;
    return Status::Busy("later");
  };
  auto consume = [&](bool ok) -> Result<int> {
    REACH_ASSIGN_OR_RETURN(int v, produce(ok));
    return v * 2;
  };
  EXPECT_EQ(*consume(true), 10);
  EXPECT_TRUE(consume(false).status().IsBusy());
}

TEST(OidTest, ValidityAndEquality) {
  EXPECT_FALSE(kInvalidOid.valid());
  Oid a{1, 2, 3};
  Oid b{1, 2, 3};
  Oid c{1, 2, 4};
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.ToString(), "oid(1.2.3)");
  EXPECT_EQ(std::hash<Oid>{}(a), std::hash<Oid>{}(b));
}

TEST(VirtualClockTest, AdvanceMovesTime) {
  VirtualClock clock(100);
  EXPECT_EQ(clock.Now(), 100);
  clock.Advance(50);
  EXPECT_EQ(clock.Now(), 150);
  clock.Set(1000);
  EXPECT_EQ(clock.Now(), 1000);
  clock.Set(500);  // never goes backwards
  EXPECT_EQ(clock.Now(), 1000);
}

TEST(VirtualClockTest, SleepUntilWakesOnAdvance) {
  VirtualClock clock(0);
  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    clock.SleepUntil(100);
    woke = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke.load());
  clock.Advance(100);
  sleeper.join();
  EXPECT_TRUE(woke.load());
}

TEST(RealClockTest, Monotonic) {
  RealClock clock;
  Timestamp a = clock.Now();
  Timestamp b = clock.Now();
  EXPECT_LE(a, b);
}

TEST(ThreadPoolTest, ExecutesTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit([&] { count.fetch_add(1); }));
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, SubmitWithResult) {
  ThreadPool pool(2);
  auto fut = pool.SubmitWithResult([] { return 21 * 2; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPoolTest, RejectsAfterShutdown) {
  ThreadPool pool(1);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

TEST(ThreadPoolTest, WaitIdleWaitsForRunningTask) {
  ThreadPool pool(1);
  std::atomic<bool> done{false};
  pool.Submit([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    done = true;
  });
  pool.WaitIdle();
  EXPECT_TRUE(done.load());
}

TEST(RandomTest, DeterministicGivenSeed) {
  Random a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    (void)c.Next();
  }
  Random a2(7), c2(8);
  EXPECT_NE(a2.Next(), c2.Next());
}

TEST(RandomTest, RangesRespected) {
  Random r(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.Uniform(10), 10u);
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    int64_t v = r.Range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

}  // namespace
}  // namespace reach
