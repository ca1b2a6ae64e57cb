#include "util/rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "util/stats.h"

namespace starcdn::util {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(7), b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(1);
  RunningStats s;
  for (int i = 0; i < 50'000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    s.add(u);
  }
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.stddev(), 0.2887, 0.01);
}

TEST(Rng, BelowIsUnbiased) {
  Rng rng(2);
  int counts[7] = {};
  for (int i = 0; i < 70'000; ++i) ++counts[rng.below(7)];
  for (const int c : counts) EXPECT_NEAR(c, 10'000, 500);
}

TEST(Rng, BelowEdgeCases) {
  Rng rng(3);
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(4);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(5);
  RunningStats s;
  for (int i = 0; i < 100'000; ++i) s.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, NormalIsTransformOfDraw) {
  // normal() is normal_of(normal_draw()): split, the values agree bitwise
  // and the two generators end in the same state.
  Rng whole(42), split(42);
  for (int i = 0; i < 10'000; ++i) {
    const double a = whole.normal(3.4, 0.45);
    const double b = Rng::normal_of(split.normal_draw(), 3.4, 0.45);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
        << "draw " << i;
  }
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(Rng::lognormal_of(split.normal_draw(), 2.2, 0.55),
              whole.lognormal(2.2, 0.55));
  }
  EXPECT_EQ(whole(), split());
}

TEST(Rng, ParetoIsTransformOfUniform) {
  Rng whole(7), split(7);
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_EQ(whole.pareto(400.0, 0.7),
              Rng::pareto_of(split.uniform(), 400.0, 0.7))
        << "draw " << i;
  }
  EXPECT_EQ(whole(), split());
}

TEST(Rng, BelowIsThresholdRejection) {
  // below(n) against the plain method: reject r < (2^64 - n) mod n, then
  // r % n. Bounds near 2^64 reject often, so both branches of the short
  // cut run.
  const std::uint64_t top = ~std::uint64_t{0};
  for (const std::uint64_t n :
       {std::uint64_t{2}, std::uint64_t{3}, std::uint64_t{1000},
        std::uint64_t{300'000}, top / 2 + 1, top / 3 * 2, top - 5}) {
    Rng fast(11), plain(11);
    const std::uint64_t threshold = (~n + 1) % n;
    for (int i = 0; i < 5'000; ++i) {
      std::uint64_t r = plain();
      while (r < threshold) r = plain();
      ASSERT_EQ(fast.below(n), r % n) << "n " << n << " draw " << i;
    }
    EXPECT_EQ(fast(), plain()) << "n " << n;
  }
}

TEST(Rng, LognormalMedian) {
  Rng rng(6);
  QuantileSampler q;
  for (int i = 0; i < 50'000; ++i) q.add(rng.lognormal(2.0, 0.5));
  EXPECT_NEAR(q.median(), std::exp(2.0), 0.15);
}

TEST(Rng, ExponentialMean) {
  Rng rng(7);
  RunningStats s;
  for (int i = 0; i < 50'000; ++i) s.add(rng.exponential(4.0));
  EXPECT_NEAR(s.mean(), 0.25, 0.01);
}

TEST(Rng, ParetoLowerBound) {
  Rng rng(8);
  for (int i = 0; i < 10'000; ++i) EXPECT_GE(rng.pareto(400.0, 0.7), 400.0);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng root(9);
  Rng a = root.fork(1);
  Rng b = root.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_EQ(same, 0);
}

TEST(Rng, BernoulliRate) {
  Rng rng(10);
  int hits = 0;
  for (int i = 0; i < 100'000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits, 30'000, 600);
}

}  // namespace
}  // namespace starcdn::util
