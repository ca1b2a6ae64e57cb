#include "trace/zipf.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace starcdn::trace
