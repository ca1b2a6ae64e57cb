#include "trace/sampler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
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

/// The table's CDF, accumulated here the way the sampler accumulates it.
std::vector<double> cdf_of(const std::vector<double>& weights) {
  std::vector<double> cdf;
  double acc = 0.0;
  for (const double w : weights) cdf.push_back(acc += std::max(0.0, w));
  return cdf;
}

/// min(upper_bound(cdf, u), n - 1): what every lookup must return.
std::size_t expected_index(const std::vector<double>& cdf, double u) {
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf.begin()), cdf.size() - 1);
}

/// The points where a guided lookup can go wrong: `draws` uniform draws,
/// every CDF value and every guide cutpoint j / n * total with their
/// neighbouring doubles, and 0, one ulp below the total and the total.
std::vector<double> lookup_points(const std::vector<double>& cdf,
                                  std::uint64_t seed, int draws) {
  const double total = cdf.back();
  std::vector<double> points;
  util::Rng rng(seed);
  for (int i = 0; i < draws; ++i) points.push_back(rng.uniform() * total);
  const auto around = [&](double x) {
    points.push_back(x);
    points.push_back(std::nextafter(x, 0.0));
    if (x < total) points.push_back(std::nextafter(x, total));
  };
  const auto n = static_cast<double>(cdf.size());
  for (std::size_t j = 0; j < cdf.size(); ++j) {
    around(cdf[j]);
    around(static_cast<double>(j) / n * total);
  }
  points.push_back(0.0);
  points.push_back(std::nextafter(total, 0.0));
  points.push_back(total);
  return points;
}

/// `got[i]` must equal expected_index(cdf, points[i]); reports the first
/// five mismatches.
void expect_indices(const std::vector<double>& cdf,
                    const std::vector<double>& points,
                    const std::vector<std::size_t>& got) {
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (got[i] != expected_index(cdf, points[i]) && ++mismatches <= 5) {
      ADD_FAILURE() << "u = " << points[i] << ": got " << got[i]
                    << ", upper_bound gives " << expected_index(cdf, points[i]);
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

struct Table {
  std::vector<double> weights;
  std::uint64_t seed;
  int draws = 1'000'000;
};

/// Tables that stress the guide: adversarial shapes and the video model's
/// largest city table.
std::vector<Table> guide_tables() {
  std::vector<Table> tables;
  // Leading, interior and trailing zeros.
  tables.push_back({{0, 0, 1, 0, 2, 0, 0, 3, 0, 0}, 1});
  // Long runs of equal CDF values: one weight every 97 entries.
  std::vector<double> runs(10'000, 0.0);
  for (std::size_t i = 50; i < runs.size(); i += 97) {
    runs[i] = i % 3 == 0 ? 1.0 : 2.0;
  }
  tables.push_back({runs, 2});
  // Equal weights put CDF values on guide cutpoints, where rounding can
  // start a lookup one slot past the answer (n = 3: u = 1 - ulp lands in
  // slot 1, whose first entry above 1/3 * 3 is index 1, not 0).
  tables.push_back({std::vector<double>(1'000, 1.0), 7});
  for (std::size_t n = 2; n <= 64; ++n) {
    tables.push_back({std::vector<double>(n, 1.0), n, 10'000});
  }
  // A single weight.
  tables.push_back({{5.0}, 3});
  // Weights from 1e-300 to 1e300, ascending, then the same descending.
  std::vector<double> wide;
  for (int e = -300; e <= 300; ++e) wide.push_back(std::pow(10.0, e));
  tables.push_back({wide, 4});
  std::reverse(wide.begin(), wide.end());
  tables.push_back({wide, 5});
  // The video model's largest city table: 181k Zipf(1.2) weights.
  std::vector<double> zipf(181'000);
  for (std::size_t i = 0; i < zipf.size(); ++i) {
    zipf[i] = std::pow(static_cast<double>(i + 1), -1.2);
  }
  tables.push_back({zipf, 6});
  return tables;
}

TEST(DiscreteSampler, GuideMatchesUpperBound) {
  for (const Table& t : guide_tables()) {
    SCOPED_TRACE("table of " + std::to_string(t.weights.size()));
    const DiscreteSampler s(t.weights);
    const std::vector<double> cdf = cdf_of(t.weights);
    const std::vector<double> points = lookup_points(cdf, t.seed, t.draws);
    std::vector<std::size_t> got;
    for (const double u : points) got.push_back(s.index_of(u));
    expect_indices(cdf, points, got);
  }
}

/// The batched lookups: index_n at every lookup point of every guide table,
/// and sample_n over spans around the prefetch group of 32 against the
/// same number of sample() calls, leaving the RNG in the same state.
TEST(DiscreteSampler, SampleNMatchesSample) {
  for (const Table& t : guide_tables()) {
    SCOPED_TRACE("table of " + std::to_string(t.weights.size()));
    const DiscreteSampler s(t.weights);
    const std::vector<double> cdf = cdf_of(t.weights);
    const std::vector<double> points = lookup_points(cdf, t.seed, t.draws);
    std::vector<std::uint32_t> batch(points.size());
    s.index_n(points, batch);
    expect_indices(cdf, points, {batch.begin(), batch.end()});

    for (const std::size_t len :
         std::vector<std::size_t>{0, 1, 31, 32, 33, 1000}) {
      SCOPED_TRACE("span of " + std::to_string(len));
      util::Rng batched(t.seed), single(t.seed);
      std::vector<std::uint32_t> out(len);
      s.sample_n(batched, out);
      for (std::size_t i = 0; i < len; ++i) {
        ASSERT_EQ(out[i], s.sample(single)) << "draw " << i;
      }
      EXPECT_EQ(batched(), single());
    }
  }
}

}  // namespace
}  // namespace starcdn::trace
