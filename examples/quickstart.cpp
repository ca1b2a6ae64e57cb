// Quickstart: generate a small workload, build the Starlink shell, and
// compare StarCDN against the naive per-satellite LRU baseline.
//
//   $ ./quickstart
//
// Walks through the whole public API in ~60 lines: scenario (workload,
// constellation, link schedule) -> simulator -> run report.
#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "core/scenario.h"
#include "core/simulator.h"

int main() {
  using namespace starcdn;

  // 1. The scenario: a video workload for the paper's nine trace cities,
  //    the Starlink 53-degree shell (72 planes x 18 slots at 550 km) and
  //    its 15-second link schedule (Starlink's reconfigure rate).
  core::Scenario recipe;
  recipe.workload.object_count = 60'000;
  recipe.workload.requests_per_weight = 20'000;
  recipe.workload.duration_s = 6 * util::kHour.value();
  const core::Scenario::Built s = recipe.build();
  std::printf("workload: %" PRIu64 " requests over %zu cities\n",
              s.model->total_request_count(), recipe.cities->size());
  std::printf("schedule: %zu epochs, %.1f satellites visible on average\n",
              s.schedule->epochs(), s.schedule->mean_candidates());

  // 2. Simulate StarCDN (L=4 buckets, relayed fetch) vs naive LRU. The
  //    Builder validates the settings before anything heavyweight runs.
  const auto cfg = core::SimConfig::Builder{}
                       .cache_capacity(util::gib(2))
                       .buckets(4)
                       .variants({core::Variant::kVanillaLru,
                                  core::Variant::kStarCdn})
                       .build();
  core::Simulator sim(*s.shell, *s.schedule, cfg);
  sim.run(*s.model->generate_stream());  // generated as it is replayed

  // 3. finish() seals the run into a self-contained report: totals,
  //    latency quantiles, and a per-epoch time-series per variant.
  const core::RunReport report = sim.finish();
  for (const auto v : {core::Variant::kVanillaLru, core::Variant::kStarCdn}) {
    const auto& m = report.variant(v).metrics;
    std::printf(
        "%-14s request hit rate %5.1f%%  byte hit rate %5.1f%%  "
        "uplink usage %5.1f%%  median latency %5.1f ms\n",
        core::to_string(v), 100.0 * m.request_hit_rate(),
        100.0 * m.byte_hit_rate(), 100.0 * m.normalized_uplink(),
        m.latency_ms.median());
  }

  // Epoch time-series: hit rate per 15 s scheduler epoch (Fig.-7-over-time).
  std::ofstream series("quickstart_starcdn_series.csv");
  report.write_series_csv(core::Variant::kStarCdn, series);
  std::printf("per-epoch series (%zu epochs) -> quickstart_starcdn_series.csv\n",
              report.variant(core::Variant::kStarCdn).series.rows());
  return 0;
}
