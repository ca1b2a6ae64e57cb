#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace starcdn::util {
namespace {

TEST(RunningStats, MatchesClosedForm) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero) {
  const RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeEqualsSingleStream) {
  RunningStats a, b, all;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10.0;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(QuantileSampler, ExactQuantilesWithoutReservoir) {
  QuantileSampler q;
  for (int i = 100; i >= 1; --i) q.add(i);  // insert unsorted
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 100.0);
  EXPECT_NEAR(q.median(), 50.5, 1e-9);
  EXPECT_NEAR(q.quantile(0.25), 25.75, 1e-9);
}

TEST(QuantileSampler, CdfMonotone) {
  QuantileSampler q;
  for (int i = 1; i <= 10; ++i) q.add(i);
  EXPECT_DOUBLE_EQ(q.cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(q.cdf(5.0), 0.5);
  EXPECT_DOUBLE_EQ(q.cdf(10.0), 1.0);
  EXPECT_LE(q.cdf(3.0), q.cdf(7.0));
}

TEST(QuantileSampler, ReservoirApproximatesMedian) {
  QuantileSampler q(1'000);
  for (int i = 0; i < 100'000; ++i) q.add(i % 1'000);
  // count() counts every sample; only storage is capped.
  EXPECT_EQ(q.count(), 100'000u);
  EXPECT_LE(q.samples().size(), 1'000u);
  EXPECT_NEAR(q.median(), 500.0, 60.0);
}

TEST(QuantileSampler, NextSlotMatchesAdd) {
  // Writing each value through next_slot() must fill the reservoir exactly
  // as add() does, including past the reservoir size where most samples
  // are dropped (nullptr) without ever being written.
  QuantileSampler by_add(16), by_slot(16);
  std::size_t dropped = 0;
  for (int i = 0; i < 10'000; ++i) {
    const double x = std::sin(i * 0.37) * 100.0 + i;
    by_add.add(x);
    if (double* slot = by_slot.next_slot()) {
      *slot = x;
    } else {
      ++dropped;
    }
  }
  EXPECT_EQ(by_slot.count(), by_add.count());
  EXPECT_EQ(by_slot.samples(), by_add.samples());
  EXPECT_GT(dropped, 9'000u);
}

TEST(QuantileSampler, EmptyReturnsZero) {
  const QuantileSampler q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.quantile(0.5), 0.0);
  EXPECT_EQ(q.cdf(1.0), 0.0);
}

}  // namespace
}  // namespace starcdn::util
