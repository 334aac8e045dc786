#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/memory_budget.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"

namespace itg {
namespace {

TEST(LoggingTest, FilteredMessageEvaluatesNoOperand) {
  const LogLevel saved = MinLogLevel();
  MinLogLevel() = LogLevel::kWarn;
  int calls = 0;
  auto f = [&calls] { return ++calls; };
  ITG_LOG(Debug) << f();
  EXPECT_EQ(calls, 0);
  // A caller's own else still binds to the caller's if.
  bool took_else = false;
  if (calls != 0)
    ITG_LOG(Debug) << f();
  else
    took_else = true;
  EXPECT_TRUE(took_else);
  EXPECT_EQ(calls, 0);
  MinLogLevel() = LogLevel::kDebug;
  testing::internal::CaptureStderr();
  ITG_LOG(Debug) << f();
  const std::string logged = testing::internal::GetCapturedStderr();
  EXPECT_EQ(calls, 1);
  EXPECT_NE(logged.find("] 1"), std::string::npos) << logged;
  MinLogLevel() = saved;
}

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorsCarryCodeAndMessage) {
  Status status = Status::IOError("disk gone");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_EQ(status.message(), "disk gone");
  EXPECT_EQ(status.ToString(), "IOError: disk gone");
}

TEST(StatusTest, Predicates) {
  EXPECT_TRUE(Status::OutOfMemory("x").IsOutOfMemory());
  EXPECT_TRUE(Status::ParseError("x").IsParseError());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_FALSE(Status::OK().IsOutOfMemory());
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x * 2;
}

TEST(StatusOrTest, ValueAndError) {
  auto good = ParsePositive(21);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  auto bad = ParsePositive(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

Status UseAssignOrReturn(int x, int* out) {
  ITG_ASSIGN_OR_RETURN(int doubled, ParsePositive(x));
  *out = doubled;
  return Status::OK();
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(5, &out).ok());
  EXPECT_EQ(out, 10);
  EXPECT_FALSE(UseAssignOrReturn(-5, &out).ok());
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformWithinBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(MemoryBudgetTest, UnlimitedByDefault) {
  MemoryBudget budget;
  EXPECT_TRUE(budget.Charge(1ull << 40).ok());
}

TEST(MemoryBudgetTest, EnforcesLimitAndTracksPeak) {
  MemoryBudget budget(1000);
  EXPECT_TRUE(budget.Charge(600).ok());
  EXPECT_TRUE(budget.Charge(300).ok());
  EXPECT_TRUE(budget.Charge(200).IsOutOfMemory());
  EXPECT_EQ(budget.peak_bytes(), 1100u);
  budget.Release(500);
  EXPECT_EQ(budget.used_bytes(), 600u);
  EXPECT_EQ(budget.peak_bytes(), 1100u);  // peak is sticky
}

TEST(MemoryBudgetTest, ConcurrentChargeReleaseIsConsistent) {
  // Charge/Release run concurrently from pool workers; the counters are
  // atomics and the peak is a CAS-max, so after a balanced storm the used
  // count is exactly zero and the peak is bounded by the worst-case
  // concurrent footprint and never below a single charge.
  MemoryBudget budget;  // unlimited
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  constexpr uint64_t kChunk = 7;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&budget] {
      for (int i = 0; i < kIters; ++i) {
        Status s = budget.Charge(kChunk);
        EXPECT_TRUE(s.ok());
        budget.Release(kChunk);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(budget.used_bytes(), 0u);
  EXPECT_GE(budget.peak_bytes(), kChunk);
  EXPECT_LE(budget.peak_bytes(), kChunk * kThreads);
}

TEST(MemoryBudgetTest, ConcurrentOverBudgetKeepsChargesRecorded) {
  // Over-budget charges still record their bytes (callers report usage
  // and then decide); concurrent failures must not corrupt the counter.
  MemoryBudget budget(1);  // everything over budget
  constexpr int kThreads = 4;
  constexpr int kIters = 5000;
  std::atomic<int> oom_count{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&budget, &oom_count] {
      for (int i = 0; i < kIters; ++i) {
        if (budget.Charge(10).IsOutOfMemory()) {
          oom_count.fetch_add(1, std::memory_order_relaxed);
        }
        budget.Release(10);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(budget.used_bytes(), 0u);
  EXPECT_EQ(oom_count.load(), kThreads * kIters);
  EXPECT_GE(budget.peak_bytes(), 10u);
}

TEST(MetricsTest, CountersAccumulateAndMerge) {
  Metrics a;
  a.AddReadBytes(10);
  a.AddWriteBytes(20);
  a.AddNetworkBytes(30);
  Metrics b;
  b.AddReadBytes(1);
  b.Merge(a);
  EXPECT_EQ(b.read_bytes(), 11u);
  EXPECT_EQ(b.write_bytes(), 20u);
  EXPECT_EQ(b.network_bytes(), 30u);
  b.Reset();
  EXPECT_EQ(b.read_bytes(), 0u);
}

}  // namespace
}  // namespace itg
