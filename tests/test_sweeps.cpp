// Parameterized cross-module sweeps: every traffic class through the
// workload/SpaceGEN pipeline, and every cache policy through the full
// StarCDN simulator — broad invariants that must hold at any point of the
// configuration space.
#include <gtest/gtest.h>

#include <unordered_map>

#include "core/scenario.h"
#include "core/simulator.h"
#include "trace/spacegen.h"
#include "trace/workload.h"
#include "util/geo.h"

namespace starcdn {
namespace {

// --- traffic-class sweep --------------------------------------------------------

class TrafficClassTest
    : public ::testing::TestWithParam<trace::TrafficClass> {};

TEST_P(TrafficClassTest, WorkloadStructurallySound) {
  auto p = trace::default_params(GetParam());
  p.object_count = 10'000;
  p.requests_per_weight = 4'000;
  p.duration_s = util::kHour.value();
  const trace::WorkloadModel w(util::paper_cities(), p);
  const auto traces = w.generate();
  ASSERT_EQ(traces.size(), util::paper_cities().size());
  for (const auto& t : traces) {
    ASSERT_FALSE(t.requests.empty());
    for (const auto& r : t.requests) {
      ASSERT_GE(r.size, 1u);
      ASSERT_LT(r.object, p.object_count);
      ASSERT_GE(r.timestamp_s, 0.0);
      ASSERT_LT(r.timestamp_s, p.duration_s);
    }
  }
}

TEST_P(TrafficClassTest, SpaceGenRoundTripsTheClass) {
  auto p = trace::default_params(GetParam());
  p.object_count = 8'000;
  p.requests_per_weight = 3'000;
  p.duration_s = util::kHour.value();
  const trace::WorkloadModel w(util::paper_cities(), p);
  const auto production = w.generate();
  const auto gen = trace::SpaceGen::fit(production);
  trace::SpaceGenConfig cfg;
  cfg.target_requests_per_location = 2'000;
  const auto synthetic = gen.generate(cfg);
  ASSERT_EQ(synthetic.size(), production.size());
  // Mean object size must carry through the GPD within a factor.
  const auto mean_size = [](const trace::MultiTrace& ts) {
    double bytes = 0.0, n = 0.0;
    for (const auto& t : ts) {
      for (const auto& r : t.requests) {
        bytes += static_cast<double>(r.size);
        n += 1.0;
      }
    }
    return bytes / std::max(1.0, n);
  };
  const double prod = mean_size(production);
  const double synth = mean_size(synthetic);
  EXPECT_GT(synth, prod * 0.5);
  EXPECT_LT(synth, prod * 2.0);
}

TEST_P(TrafficClassTest, StarCdnBeatsLruForEveryClass) {
  core::Scenario recipe;
  recipe.workload = trace::default_params(GetParam());
  recipe.workload.object_count = 10'000;
  recipe.workload.requests_per_weight = 5'000;
  recipe.workload.duration_s = util::kHour.value();
  const core::Scenario::Built s = recipe.build();
  core::SimConfig cfg;
  cfg.cache_capacity = util::mib(128);
  cfg.buckets = 9;
  cfg.sample_latency = false;
  cfg.variants = {core::Variant::kStarCdn, core::Variant::kVanillaLru};
  core::Simulator sim(*s.shell, *s.schedule, cfg);
  sim.run(*s.model->generate_stream());
  const core::RunReport report = sim.finish();
  EXPECT_GT(report.variant(core::Variant::kStarCdn).metrics.request_hit_rate(),
            report.variant(core::Variant::kVanillaLru)
                .metrics.request_hit_rate());
}

INSTANTIATE_TEST_SUITE_P(AllClasses, TrafficClassTest,
                         ::testing::Values(trace::TrafficClass::kVideo,
                                           trace::TrafficClass::kWeb,
                                           trace::TrafficClass::kDownload),
                         [](const auto& name_info) {
                           return std::string(to_string(name_info.param));
                         });

// --- cache-policy sweep through the simulator -----------------------------------

class SimPolicyTest : public ::testing::TestWithParam<cache::Policy> {
 protected:
  /// Built on first use and shared by every test.
  static const core::Scenario::Built& scenario() {
    static const core::Scenario::Built built = [] {
      core::Scenario recipe;
      recipe.workload.object_count = 15'000;
      recipe.workload.requests_per_weight = 6'000;
      recipe.workload.duration_s = util::kHour.value();
      return recipe.build();
    }();
    return built;
  }
  static const std::vector<trace::Request>& requests() {
    static const auto all =
        trace::collect(*scenario().model->generate_stream());
    return all;
  }
  /// Replay the shared trace under `cfg` and return its report.
  static core::RunReport replay(const core::SimConfig& cfg) {
    core::Simulator sim(*scenario().shell, *scenario().schedule, cfg);
    trace::VectorStream stream(requests());
    sim.run(stream);
    return sim.finish();
  }
};

TEST_P(SimPolicyTest, ConservationUnderEveryPolicy) {
  // §3.2: "our consistent hashing scheme accommodates any cache
  // replacement scheme". All invariants must hold regardless of policy.
  core::SimConfig cfg;
  cfg.policy = GetParam();
  cfg.cache_capacity = util::mib(128);
  cfg.buckets = 4;
  cfg.sample_latency = false;
  cfg.variants = {core::Variant::kStarCdn, core::Variant::kVanillaLru};
  const core::RunReport report = replay(cfg);
  for (const auto v : {core::Variant::kStarCdn, core::Variant::kVanillaLru}) {
    const auto& m = report.variant(v).metrics;
    EXPECT_EQ(m.requests, requests().size());
    EXPECT_EQ(m.hits() + m.misses, m.requests);
    EXPECT_EQ(m.bytes_hit + m.uplink_bytes, m.bytes_requested);
  }
  EXPECT_GT(report.variant(core::Variant::kStarCdn).metrics.request_hit_rate(),
            report.variant(core::Variant::kVanillaLru)
                .metrics.request_hit_rate());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SimPolicyTest,
                         ::testing::Values(cache::Policy::kLru,
                                           cache::Policy::kLfu,
                                           cache::Policy::kFifo,
                                           cache::Policy::kSieve,
                                           cache::Policy::kSlru,
                                           cache::Policy::kGdsf),
                         [](const auto& name_info) {
                           return std::string(to_string(name_info.param));
                         });

// --- bucket-count sweep -----------------------------------------------------------

class BucketSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(BucketSweepTest, HashedVariantsValidAtEveryL) {
  core::Scenario recipe;
  recipe.workload.object_count = 8'000;
  recipe.workload.requests_per_weight = 2'500;
  recipe.workload.duration_s = util::kHour.value() / 2;
  const core::Scenario::Built s = recipe.build();
  core::SimConfig cfg;
  cfg.cache_capacity = util::mib(128);
  cfg.buckets = GetParam();
  cfg.sample_latency = false;
  cfg.variants = {core::Variant::kStarCdn};
  core::Simulator sim(*s.shell, *s.schedule, cfg);
  sim.run(*s.model->generate_stream());
  const core::RunReport report = sim.finish();
  const auto& m = report.variant(core::Variant::kStarCdn).metrics;
  EXPECT_EQ(m.hits() + m.misses, m.requests);
  EXPECT_GT(m.request_hit_rate(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(SquareL, BucketSweepTest,
                         ::testing::Values(1, 4, 9, 16, 25));

}  // namespace
}  // namespace starcdn
