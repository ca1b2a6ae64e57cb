// End-to-end integration: production workload -> SpaceGEN fit/regenerate ->
// full constellation simulation, checking the paper's headline claims hold
// through the whole pipeline.
#include <gtest/gtest.h>

#include "core/simulator.h"
#include "trace/spacegen.h"
#include "trace/workload.h"
#include "util/geo.h"

namespace starcdn {
namespace {

TEST(EndToEnd, SpaceGenTraceDrivesSimulatorLikeProduction) {
  // 1. Production workload.
  auto p = trace::default_params(trace::TrafficClass::kVideo);
  p.object_count = 15'000;
  p.requests_per_weight = 8'000;
  p.duration_s = 2 * util::kHour.value();
  const trace::WorkloadModel w(util::paper_cities(), p);
  const auto production = w.generate();

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
    for (auto& r : t.requests) r.timestamp_s *= p.duration_s / (max_ts + 1.0);
  }

  // 3. Simulate both against the same constellation (the Fig. 6e/6f check).
  const orbit::Constellation shell{orbit::WalkerParams{}};
  const sched::LinkSchedule schedule(shell, util::paper_cities(), util::Seconds{p.duration_s});
  core::SimConfig cfg;
  cfg.cache_capacity = util::mib(512);
  cfg.sample_latency = false;

  const auto hit_rate = [&](const trace::MultiTrace& traces) {
    core::Simulator sim(shell, schedule, cfg);
    sim.add_variant(core::Variant::kVanillaLru);
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
  auto p = trace::default_params(trace::TrafficClass::kVideo);
  p.object_count = 40'000;
  p.requests_per_weight = 30'000;
  p.duration_s = 4 * util::kHour.value();
  const trace::WorkloadModel w(util::paper_cities(), p);

  const orbit::Constellation shell{orbit::WalkerParams{}};
  const sched::LinkSchedule schedule(shell, util::paper_cities(), util::Seconds{p.duration_s});
  core::SimConfig cfg;
  cfg.cache_capacity = util::gib(1);
  cfg.buckets = 9;
  core::Simulator sim(shell, schedule, cfg);
  sim.add_variant(core::Variant::kStarCdn);
  sim.add_variant(core::Variant::kVanillaLru);
  sim.run(*w.generate_stream());

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
    bentpipe.add(lat.bentpipe_starlink(util::Millis{2.94}, rng).value());
  }
  EXPECT_LT(star.latency_ms.median() * 2.0, bentpipe.median());
}

}  // namespace
}  // namespace starcdn
