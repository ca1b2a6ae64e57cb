// SpaceGEN fidelity tests: Algorithm 1's output must reproduce the
// production trace's structure (§4.3 / Fig. 6) well enough for cache
// simulation.
#include "trace/spacegen.h"

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "cache/lru.h"
#include "trace/workload.h"
#include "util/geo.h"
#include "util/histogram.h"

namespace starcdn::trace {
namespace {

MultiTrace small_production() {
  auto p = default_params(TrafficClass::kVideo);
  p.object_count = 15'000;
  p.requests_per_weight = 12'000;
  p.duration_s = 4 * util::kHour.value();
  const WorkloadModel w(util::paper_cities(), p);
  return w.generate();
}

class SpaceGenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    production_ = new MultiTrace(small_production());
    gen_ = new SpaceGen(SpaceGen::fit(*production_));
    SpaceGenConfig cfg;
    cfg.target_requests_per_location = 10'000;
    synthetic_ = new MultiTrace(gen_->generate(cfg));
  }
  static void TearDownTestSuite() {
    delete production_;
    delete gen_;
    delete synthetic_;
    production_ = nullptr;
    gen_ = nullptr;
    synthetic_ = nullptr;
  }

  static MultiTrace* production_;
  static SpaceGen* gen_;
  static MultiTrace* synthetic_;
};

MultiTrace* SpaceGenTest::production_ = nullptr;
SpaceGen* SpaceGenTest::gen_ = nullptr;
MultiTrace* SpaceGenTest::synthetic_ = nullptr;

TEST_F(SpaceGenTest, AllLocationsGenerated) {
  ASSERT_EQ(synthetic_->size(), production_->size());
  for (std::size_t i = 0; i < synthetic_->size(); ++i) {
    EXPECT_GT((*synthetic_)[i].requests.size(), 1'000u) << "location " << i;
    EXPECT_EQ((*synthetic_)[i].location, i);
  }
}

TEST_F(SpaceGenTest, TimestampsMonotonePerLocation) {
  for (const auto& t : *synthetic_) {
    for (std::size_t i = 1; i < t.requests.size(); ++i) {
      ASSERT_LE(t.requests[i - 1].timestamp_s, t.requests[i].timestamp_s);
    }
  }
}

TEST_F(SpaceGenTest, RelativeRatesPreserved) {
  // New York (idx 4, weight 1.8) vs Vienna (idx 7, weight 0.8): the
  // synthetic trace must keep the ratio roughly.
  const double ratio =
      static_cast<double>((*synthetic_)[4].requests.size()) /
      static_cast<double>((*synthetic_)[7].requests.size());
  const double prod_ratio =
      static_cast<double>((*production_)[4].requests.size()) /
      static_cast<double>((*production_)[7].requests.size());
  EXPECT_NEAR(ratio, prod_ratio, prod_ratio * 0.25);
}

util::Histogram spread_histogram(const MultiTrace& traces, bool weighted) {
  // Fig. 6a/6b: number of locations each object is accessed from,
  // optionally weighted by bytes requested (traffic spread).
  std::unordered_map<ObjectId, std::unordered_set<std::uint16_t>> locs;
  std::unordered_map<ObjectId, double> bytes;
  for (const auto& t : traces) {
    for (const auto& r : t.requests) {
      locs[r.object].insert(t.location);
      bytes[r.object] += static_cast<double>(r.size);
    }
  }
  util::Histogram h(0.5, 9.5, 9);
  for (const auto& [id, set] : locs) {
    h.add(static_cast<double>(set.size()), weighted ? bytes[id] : 1.0);
  }
  return h;
}

TEST_F(SpaceGenTest, ObjectSpreadMatchesProduction) {
  // Fig. 6a: the two CDFs nearly coincide; total-variation distance small.
  // On one production trace a single synthetic draw scatters the distance
  // by about ±0.015, so the bound applies to the mean over SpaceGEN seeds.
  constexpr int kSeeds = 16;
  const auto prod = spread_histogram(*production_, false);
  double sum = 0.0;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    SpaceGenConfig cfg;
    cfg.target_requests_per_location = 10'000;
    cfg.seed = static_cast<std::uint64_t>(seed);
    sum += prod.tv_distance(spread_histogram(gen_->generate(cfg), false));
  }
  EXPECT_LT(sum / kSeeds, 0.15);
}

TEST_F(SpaceGenTest, TrafficSpreadMatchesProduction) {
  const auto prod = spread_histogram(*production_, true);
  const auto synth = spread_histogram(*synthetic_, true);
  EXPECT_LT(prod.tv_distance(synth), 0.20);
}

double lru_hit_rate(const LocationTrace& trace, Bytes capacity) {
  cache::LruCache c(capacity);
  for (const auto& r : trace.requests) c.access(r.object, r.size);
  return c.stats().request_hit_rate();
}

TEST_F(SpaceGenTest, SingleCacheHitRatesTrackProduction) {
  // Fig. 6c: terrestrial LRU simulation per location; paper reports a 0.4%
  // average gap. Our tolerance is wider at this scale but still tight.
  double total_gap = 0.0;
  int cells = 0;
  for (const Bytes cap : {util::gib(0.5), util::gib(2), util::gib(8)}) {
    const double p = lru_hit_rate((*production_)[4], cap);
    const double s = lru_hit_rate((*synthetic_)[4], cap);
    total_gap += std::abs(p - s);
    ++cells;
  }
  EXPECT_LT(total_gap / cells, 0.08);
}

TEST_F(SpaceGenTest, PopularityBudgetsRespected) {
  // Algorithm 1 retires an object at a location once its sampled popularity
  // is exhausted; no synthetic object may wildly exceed the production
  // maximum popularity.
  std::unordered_map<ObjectId, std::size_t> counts;
  for (const auto& r : (*synthetic_)[0].requests) ++counts[r.object];
  std::size_t prod_max = 0;
  {
    std::unordered_map<ObjectId, std::size_t> pc;
    for (const auto& r : (*production_)[0].requests) ++pc[r.object];
    for (const auto& [id, n] : pc) prod_max = std::max(prod_max, n);
  }
  for (const auto& [id, n] : counts) {
    EXPECT_LE(n, prod_max + 1) << "synthetic object " << id
                               << " exceeds production popularity ceiling";
  }
}

TEST(SpaceGen, MismatchedInputsThrow) {
  const auto prod = small_production();
  auto gpd = GlobalPopularityDistribution::extract(prod);
  std::vector<FootprintDescriptor> too_few(2);
  EXPECT_THROW(SpaceGen(std::move(gpd), std::move(too_few)),
               std::invalid_argument);
}

TEST(SpaceGen, DeterministicForSeed) {
  const auto prod = small_production();
  const auto gen = SpaceGen::fit(prod);
  SpaceGenConfig cfg;
  cfg.target_requests_per_location = 2'000;
  const auto a = gen.generate(cfg);
  const auto b = gen.generate(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].requests.size(), b[i].requests.size());
    for (std::size_t k = 0; k < a[i].requests.size(); ++k) {
      ASSERT_EQ(a[i].requests[k].object, b[i].requests[k].object);
    }
  }
}

}  // namespace
}  // namespace starcdn::trace
