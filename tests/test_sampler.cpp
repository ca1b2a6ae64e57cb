#include "trace/sampler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace starcdn::trace {
namespace {

TEST(DiscreteSampler, RespectsWeights) {
  const DiscreteSampler s({1.0, 0.0, 3.0});
  util::Rng rng(4);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40'000; ++i) ++counts[s.sample(rng)];
  EXPECT_NEAR(counts[0], 10'000, 500);
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2], 30'000, 500);
}

TEST(DiscreteSampler, NegativeWeightsClampToZero) {
  const DiscreteSampler s({-5.0, 2.0});
  util::Rng rng(5);
  for (int i = 0; i < 1'000; ++i) EXPECT_EQ(s.sample(rng), 1u);
}

TEST(DiscreteSampler, AllZeroThrows) {
  EXPECT_THROW(DiscreteSampler({0.0, 0.0}), std::invalid_argument);
}

/// The constructor's message for `weights`, or "" when it does not throw.
std::string rejection(const std::vector<double>& weights) {
  try {
    const DiscreteSampler s(weights);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(DiscreteSampler, NonFiniteWeightsThrow) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_NE(rejection({1.0, nan, 2.0}).find("weight 1 is nan"),
            std::string::npos);
  EXPECT_NE(rejection({1.0, 2.0, inf}).find("weight 2 is inf"),
            std::string::npos);
  EXPECT_NE(rejection({-inf, 1.0}).find("weight 0 is -inf"),
            std::string::npos);
}

TEST(DiscreteSampler, OverflowingSumThrows) {
  const double big = std::numeric_limits<double>::max();
  EXPECT_NE(rejection({big, big}).find("sum to inf"), std::string::npos);
  EXPECT_EQ(rejection({big, 0.0}), "");
}

/// index_of(u) must equal min(upper_bound(cdf, u), n - 1) over a CDF this
/// test accumulates itself: at 10^6 uniform draws, at every CDF value and
/// every guide cutpoint j / n * total with their neighbouring doubles, and
/// at 0, one ulp below the total and the total.
void expect_matches_upper_bound(const std::vector<double>& weights,
                                std::uint64_t seed, int draws = 1'000'000) {
  std::vector<double> cdf;
  double acc = 0.0;
  for (const double w : weights) cdf.push_back(acc += std::max(0.0, w));
  const double total = acc;
  const DiscreteSampler s(weights);
  const auto expected = [&](double u) {
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
    return std::min(static_cast<std::size_t>(it - cdf.begin()),
                    cdf.size() - 1);
  };
  std::size_t mismatches = 0;
  const auto check = [&](double u) {
    if (s.index_of(u) != expected(u) && ++mismatches <= 5) {
      ADD_FAILURE() << "u = " << u << ": got " << s.index_of(u)
                    << ", upper_bound gives " << expected(u);
    }
  };
  util::Rng rng(seed);
  for (int i = 0; i < draws; ++i) check(rng.uniform() * total);
  const auto check_around = [&](double x) {
    check(x);
    check(std::nextafter(x, 0.0));
    if (x < total) check(std::nextafter(x, total));
  };
  const auto n = static_cast<double>(cdf.size());
  for (std::size_t j = 0; j < cdf.size(); ++j) {
    check_around(cdf[j]);
    check_around(static_cast<double>(j) / n * total);
  }
  check(0.0);
  check(std::nextafter(total, 0.0));
  check(total);
  EXPECT_EQ(mismatches, 0u);
}

TEST(DiscreteSampler, GuideMatchesUpperBound) {
  // Leading, interior and trailing zeros.
  expect_matches_upper_bound({0, 0, 1, 0, 2, 0, 0, 3, 0, 0}, 1);
  // Long runs of equal CDF values: one weight every 97 entries.
  std::vector<double> runs(10'000, 0.0);
  for (std::size_t i = 50; i < runs.size(); i += 97) {
    runs[i] = i % 3 == 0 ? 1.0 : 2.0;
  }
  expect_matches_upper_bound(runs, 2);
  // Equal weights put CDF values on guide cutpoints, where rounding can
  // start a lookup one slot past the answer (n = 3: u = 1 - ulp lands in
  // slot 1, whose first entry above 1/3 * 3 is index 1, not 0).
  expect_matches_upper_bound(std::vector<double>(1'000, 1.0), 7);
  for (std::size_t n = 2; n <= 64; ++n) {
    expect_matches_upper_bound(std::vector<double>(n, 1.0), n, 10'000);
  }
  // A single weight.
  expect_matches_upper_bound({5.0}, 3);
  // Weights from 1e-300 to 1e300, ascending, then the same descending.
  std::vector<double> wide;
  for (int e = -300; e <= 300; ++e) wide.push_back(std::pow(10.0, e));
  expect_matches_upper_bound(wide, 4);
  std::reverse(wide.begin(), wide.end());
  expect_matches_upper_bound(wide, 5);
  // The video model's largest city table: 181k Zipf(1.2) weights.
  std::vector<double> zipf(181'000);
  for (std::size_t i = 0; i < zipf.size(); ++i) {
    zipf[i] = std::pow(static_cast<double>(i + 1), -1.2);
  }
  expect_matches_upper_bound(zipf, 6);
}

}  // namespace
}  // namespace starcdn::trace
