// End-to-end integration: production workload -> SpaceGEN fit/regenerate ->
// full constellation simulation, checking the paper's headline claims hold
// through the whole pipeline.
#include <gtest/gtest.h>

#include "core/scenario.h"
#include "core/simulator.h"
#include "trace/spacegen.h"

namespace starcdn {
namespace {

TEST(EndToEnd, SpaceGenTraceDrivesSimulatorLikeProduction) {
  // 1. Production workload.
  core::Scenario recipe;
  recipe.workload.object_count = 15'000;
  recipe.workload.requests_per_weight = 8'000;
  recipe.workload.duration_s = 2 * util::kHour.value();
  const core::Scenario::Built s = recipe.build();
  const auto production = s.model->generate();

  // 2. Fit SpaceGEN and regenerate a synthetic trace of similar length.
  const auto gen = trace::SpaceGen::fit(production);
  trace::SpaceGenConfig gen_cfg;
  gen_cfg.target_requests_per_location = 15'000;  // ~ production volume
  auto synthetic = gen.generate(gen_cfg);
  // Stretch synthetic timestamps to the same wall-clock span so orbital
  // dynamics are comparable.
  double max_ts = 1.0;
  for (const auto& t : synthetic) {
    if (!t.requests.empty()) {
      max_ts = std::max(max_ts, t.requests.back().timestamp_s);
    }
  }
  for (auto& t : synthetic) {
    for (auto& r : t.requests) {
      r.timestamp_s *= recipe.workload.duration_s / (max_ts + 1.0);
    }
  }

  // 3. Simulate both against the same constellation (the Fig. 6e/6f check).
  core::SimConfig cfg;
  cfg.cache_capacity = util::mib(512);
  cfg.sample_latency = false;
  cfg.variants = {core::Variant::kVanillaLru};

  const auto hit_rate = [&](const trace::MultiTrace& traces) {
    core::Simulator sim(*s.shell, *s.schedule, cfg);
    const auto requests = trace::merge_by_time(traces);
    trace::VectorStream stream(requests);
    sim.run(stream);
    return sim.finish()
        .variant(core::Variant::kVanillaLru)
        .metrics.request_hit_rate();
  };
  const double prod_hr = hit_rate(production);
  const double synth_hr = hit_rate(synthetic);
  // The paper reports a ~2% gap for satellite LRU simulations (§4.3) at
  // 400M requests/day; at our thousand-times-smaller scale the synthetic
  // trace underestimates cross-location temporal clustering (§7 limitation)
  // so the band is wider.
  EXPECT_NEAR(prod_hr, synth_hr, 0.13);
  EXPECT_GT(prod_hr, 0.1);
}

TEST(EndToEnd, HeadlineClaimsAtTargetConfiguration) {
  // §5 headline numbers (scaled): StarCDN lifts the hit rate well above
  // naive LRU, saves a large fraction of uplink, and improves median
  // latency over bent-pipe Starlink by >2x.
  core::Scenario recipe;
  recipe.workload.object_count = 40'000;
  recipe.workload.requests_per_weight = 30'000;
  recipe.workload.duration_s = 4 * util::kHour.value();
  const core::Scenario::Built s = recipe.build();

  core::SimConfig cfg;
  cfg.cache_capacity = util::gib(1);
  cfg.buckets = 9;
  cfg.variants = {core::Variant::kStarCdn, core::Variant::kVanillaLru};
  core::Simulator sim(*s.shell, *s.schedule, cfg);
  sim.run(*s.model->generate_stream());

  const core::RunReport report = sim.finish();
  const auto& star = report.variant(core::Variant::kStarCdn).metrics;
  const auto& lru = report.variant(core::Variant::kVanillaLru).metrics;

  EXPECT_GT(star.request_hit_rate(), lru.request_hit_rate() + 0.05);
  EXPECT_LT(star.normalized_uplink(), lru.normalized_uplink());

  // Median latency: StarCDN vs the 55 ms bent-pipe baseline.
  net::LatencyModel lat;
  util::Rng rng(5);
  util::QuantileSampler bentpipe;
  for (int i = 0; i < 20'000; ++i) {
    bentpipe.add(
        lat.bentpipe_starlink(util::Millis{2.94}, rng.normal_draw()).value());
  }
  EXPECT_LT(star.latency_ms.median() * 2.0, bentpipe.median());
}

}  // namespace
}  // namespace starcdn
