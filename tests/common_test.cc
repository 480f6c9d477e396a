// Unit tests for src/common: Result, bit ops, clocks, RNG, histogram.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/bitops.h"
#include "src/common/clock.h"
#include "src/common/histogram.h"
#include "src/common/random.h"
#include "src/common/status.h"

namespace demi {
namespace {

TEST(StatusTest, NamesAreStable) {
  EXPECT_EQ(StatusName(Status::kOk), "Ok");
  EXPECT_EQ(StatusName(Status::kWouldBlock), "WouldBlock");
  EXPECT_EQ(StatusName(Status::kConnectionReset), "ConnectionReset");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.error(), Status::kOk);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::kNotFound;
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Status::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r.value());
  EXPECT_EQ(*v, 7);
}

TEST(ResultTest, CopyAndAssign) {
  Result<std::string> a = std::string("hello");
  Result<std::string> b = a;
  EXPECT_EQ(*b, "hello");
  b = Result<std::string>(Status::kNoMemory);
  EXPECT_FALSE(b.ok());
  b = a;
  EXPECT_EQ(*b, "hello");
}

TEST(BitopsTest, ForEachSetBitVisitsAll) {
  std::vector<int> seen;
  ForEachSetBit(0b1010'0101ULL, [&](int i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<int>{0, 2, 5, 7}));
}

TEST(BitopsTest, ForEachSetBitEmptyAndFull) {
  int count = 0;
  ForEachSetBit(0, [&](int) { count++; });
  EXPECT_EQ(count, 0);
  ForEachSetBit(~0ULL, [&](int) { count++; });
  EXPECT_EQ(count, 64);
}

TEST(BitopsTest, LowestSetBit) {
  EXPECT_EQ(LowestSetBit(0), -1);
  EXPECT_EQ(LowestSetBit(1), 0);
  EXPECT_EQ(LowestSetBit(0b1000), 3);
}

TEST(BitopsTest, PowerOfTwoHelpers) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(64));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(48));
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(64), 64u);
}

TEST(ClockTest, MonotonicAdvances) {
  MonotonicClock clock;
  TimeNs a = clock.Now();
  TimeNs b = clock.Now();
  EXPECT_GE(b, a);
}

TEST(ClockTest, VirtualClockIsManual) {
  VirtualClock clock(100);
  EXPECT_EQ(clock.Now(), 100u);
  clock.Advance(50);
  EXPECT_EQ(clock.Now(), 150u);
  clock.SetTime(10);
  EXPECT_EQ(clock.Now(), 10u);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, BoundedStaysInBound) {
  Rng rng(3);
  for (int i = 0; i < 10'000; i++) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10'000; i++) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoolProbabilityRoughlyHolds) {
  Rng rng(5);
  int hits = 0;
  constexpr int kTrials = 100'000;
  for (int i = 0; i < kTrials; i++) {
    if (rng.NextBool(0.3)) {
      hits++;
    }
  }
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.01);
}

TEST(ZipfTest, SkewsTowardLowKeys) {
  ZipfGenerator zipf(1000, 0.99, 123);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100'000; i++) {
    counts[zipf.Next()]++;
  }
  // Key 0 should be far more popular than the median key.
  EXPECT_GT(counts[0], counts[500] * 10);
}

TEST(ZipfTest, StaysInRange) {
  ZipfGenerator zipf(10, 0.99, 9);
  for (int i = 0; i < 10'000; i++) {
    EXPECT_LT(zipf.Next(), 10u);
  }
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; v++) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_NEAR(h.Mean(), 50.5, 0.001);
  EXPECT_NEAR(static_cast<double>(h.P50()), 50.0, 3.0);
  EXPECT_NEAR(static_cast<double>(h.P99()), 99.0, 3.0);
}

TEST(HistogramTest, QuantilePrecisionWithinBucketBounds) {
  Histogram h;
  h.Record(1'000'000);  // 1 ms in ns
  EXPECT_EQ(h.count(), 1u);
  // Log-bucketed: ~1.6% relative precision.
  EXPECT_NEAR(static_cast<double>(h.P99()), 1'000'000.0, 1'000'000.0 * 0.02);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a;
  Histogram b;
  a.Record(10);
  b.Record(20);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 20u);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
}

}  // namespace
}  // namespace demi
