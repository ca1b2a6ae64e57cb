// Tests for the design-ablation extensions: the hottest() cache API, the
// proactive-prefetch variant (§3.3's rejected alternative), and the
// transient failure model (§3.4).
#include <gtest/gtest.h>

#include "cache/lfu.h"
#include "cache/lru.h"
#include "cache/slru.h"
#include "core/failure.h"
#include "core/scenario.h"
#include "core/simulator.h"
#include "trace/workload.h"
#include "util/geo.h"

namespace starcdn {
namespace {

// --- hottest() ----------------------------------------------------------------

TEST(Hottest, LruReturnsMostRecentFirst) {
  cache::LruCache c(1'000);
  c.admit(1, 10);
  c.admit(2, 20);
  c.admit(3, 30);
  c.touch(1);
  const auto hot = c.hottest(2);
  ASSERT_EQ(hot.size(), 2u);
  EXPECT_EQ(hot[0].first, 1u);
  EXPECT_EQ(hot[0].second, 10u);
  EXPECT_EQ(hot[1].first, 3u);
}

TEST(Hottest, LfuReturnsMostFrequentFirst) {
  cache::LfuCache c(1'000);
  c.admit(1, 10);
  c.admit(2, 10);
  c.touch(2);
  c.touch(2);
  const auto hot = c.hottest(1);
  ASSERT_EQ(hot.size(), 1u);
  EXPECT_EQ(hot[0].first, 2u);
}

TEST(Hottest, SlruPrefersProtected) {
  cache::SlruCache c(1'000, 0.5);
  c.admit(1, 10);   // probation
  c.admit(2, 10);
  c.touch(2);       // protected
  const auto hot = c.hottest(2);
  ASSERT_EQ(hot.size(), 2u);
  EXPECT_EQ(hot[0].first, 2u);
}

class HottestPolicyTest : public ::testing::TestWithParam<cache::Policy> {};

TEST_P(HottestPolicyTest, BoundedAndResident) {
  const auto c = cache::make_cache(GetParam(), 10'000);
  for (cache::ObjectId i = 0; i < 50; ++i) c->admit(i, 100);
  const auto hot = c->hottest(10);
  EXPECT_EQ(hot.size(), 10u);
  for (const auto& [id, size] : hot) {
    EXPECT_TRUE(c->peek(id));
    EXPECT_EQ(size, 100u);
  }
  EXPECT_TRUE(c->hottest(0).empty());
  EXPECT_EQ(c->hottest(1'000).size(), 50u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, HottestPolicyTest,
                         ::testing::Values(cache::Policy::kLru,
                                           cache::Policy::kLfu,
                                           cache::Policy::kFifo,
                                           cache::Policy::kSieve,
                                           cache::Policy::kSlru,
                                           cache::Policy::kGdsf));

// --- TransientFailureModel ------------------------------------------------------

TEST(TransientFailure, ZeroProbabilityNeverDown) {
  const core::TransientFailureModel model(0.0);
  for (int s = 0; s < 100; ++s) {
    EXPECT_FALSE(model.down(util::SatId{s}, util::Seconds{12'345.0}));
  }
}

TEST(TransientFailure, FrequencyMatchesProbability) {
  const core::TransientFailureModel model(0.2, util::Seconds{300.0});
  int downs = 0, total = 0;
  for (int s = 0; s < 200; ++s) {
    for (double t = 0.0; t < 86'400.0; t += 300.0) {
      downs += model.down(util::SatId{s}, util::Seconds{t});
      ++total;
    }
  }
  EXPECT_NEAR(static_cast<double>(downs) / total, 0.2, 0.01);
}

TEST(TransientFailure, StableWithinWindow) {
  const core::TransientFailureModel model(0.5, util::Seconds{300.0});
  for (int s = 0; s < 50; ++s) {
    const bool at_start = model.down(util::SatId{s}, util::Seconds{600.0});
    EXPECT_EQ(model.down(util::SatId{s}, util::Seconds{601.0}), at_start);
    EXPECT_EQ(model.down(util::SatId{s}, util::Seconds{899.9}), at_start);
  }
}

TEST(TransientFailure, DeterministicForSeed) {
  const core::TransientFailureModel a(0.3, util::Seconds{300.0}, 42);
  const core::TransientFailureModel b(0.3, util::Seconds{300.0}, 42);
  const core::TransientFailureModel c(0.3, util::Seconds{300.0}, 43);
  int diff = 0;
  for (int s = 0; s < 100; ++s) {
    EXPECT_EQ(a.down(util::SatId{s}, util::Seconds{1'000.0}), b.down(util::SatId{s}, util::Seconds{1'000.0}));
    diff += a.down(util::SatId{s}, util::Seconds{1'000.0}) != c.down(util::SatId{s}, util::Seconds{1'000.0});
  }
  EXPECT_GT(diff, 0);
}

// --- Prefetch variant & transient outages in the simulator ---------------------

class ExtensionSimTest : public ::testing::Test {
 protected:
  /// Built on first use and shared by every test.
  static const core::Scenario::Built& scenario() {
    static const core::Scenario::Built built = [] {
      core::Scenario recipe;
      recipe.workload.object_count = 20'000;
      recipe.workload.requests_per_weight = 10'000;
      recipe.workload.duration_s = 2 * util::kHour.value();
      return recipe.build();
    }();
    return built;
  }
  /// Replay the shared trace under `cfg` and return its report.
  static core::RunReport replay(const core::SimConfig& cfg) {
    static const auto requests =
        trace::collect(*scenario().model->generate_stream());
    core::Simulator sim(*scenario().shell, *scenario().schedule, cfg);
    trace::VectorStream stream(requests);
    sim.run(stream);
    return sim.finish();
  }
};

TEST_F(ExtensionSimTest, PrefetchMovesSpeculativeBytes) {
  core::SimConfig cfg;
  cfg.cache_capacity = util::mib(256);
  cfg.buckets = 4;
  cfg.sample_latency = false;
  cfg.variants = {core::Variant::kPrefetch, core::Variant::kStarCdn};
  const core::RunReport report = replay(cfg);

  const auto& pf = report.variant(core::Variant::kPrefetch).metrics;
  const auto& star = report.variant(core::Variant::kStarCdn).metrics;
  EXPECT_GT(pf.prefetch_bytes, 0u);
  EXPECT_EQ(star.prefetch_bytes, 0u);
  // §3.3: prefetch burns far more ISL bandwidth than miss-triggered relay
  // and does not beat it on hit rate.
  EXPECT_GT(pf.isl_bytes, star.isl_bytes);
  EXPECT_LE(pf.request_hit_rate(), star.request_hit_rate() + 0.01);
  // Conservation still holds.
  EXPECT_EQ(pf.hits() + pf.misses, pf.requests);
  EXPECT_EQ(pf.bytes_hit + pf.uplink_bytes, pf.bytes_requested);
}

TEST_F(ExtensionSimTest, PrefetchBeatsPlainHashingSometimesNotRelay) {
  core::SimConfig cfg;
  cfg.cache_capacity = util::mib(256);
  cfg.buckets = 4;
  cfg.sample_latency = false;
  cfg.variants = {core::Variant::kPrefetch, core::Variant::kHashOnly};
  const core::RunReport report = replay(cfg);
  // Prefetch is a (wasteful) form of content backflow: it should at least
  // not fall far below hashing-only.
  EXPECT_GT(
      report.variant(core::Variant::kPrefetch).metrics.request_hit_rate(),
      report.variant(core::Variant::kHashOnly).metrics.request_hit_rate() -
          0.05);
}

TEST_F(ExtensionSimTest, TransientOutagesDegradeGracefully) {
  const auto hit_rate_at = [&](double p) {
    core::SimConfig cfg;
    cfg.cache_capacity = util::mib(256);
    cfg.buckets = 4;
    cfg.sample_latency = false;
    cfg.transient_down_prob = p;
    cfg.variants = {core::Variant::kStarCdn};
    const core::RunReport report = replay(cfg);
    const auto& m = report.variant(core::Variant::kStarCdn).metrics;
    EXPECT_EQ(m.hits() + m.misses, m.requests);
    if (p == 0.0) {
      EXPECT_EQ(m.transient_misses, 0u);
    }
    if (p > 0.0) {
      EXPECT_GT(m.transient_misses, 0u);
    }
    return m.request_hit_rate();
  };
  const double healthy = hit_rate_at(0.0);
  const double degraded = hit_rate_at(0.10);
  EXPECT_GT(healthy, degraded);
  // ~10% downtime must not cost much more than ~10 points of hit rate.
  EXPECT_LT(healthy - degraded, 0.15);
}

TEST_F(ExtensionSimTest, TransientMissCountTracksProbability) {
  core::SimConfig cfg;
  cfg.cache_capacity = util::mib(256);
  cfg.buckets = 4;
  cfg.sample_latency = false;
  cfg.transient_down_prob = 0.25;
  cfg.variants = {core::Variant::kStarCdn};
  const core::RunReport report = replay(cfg);
  const auto& m = report.variant(core::Variant::kStarCdn).metrics;
  const double fraction =
      static_cast<double>(m.transient_misses) / static_cast<double>(m.requests);
  EXPECT_NEAR(fraction, 0.25, 0.05);
}

}  // namespace
}  // namespace starcdn
