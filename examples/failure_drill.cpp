// Failure drill: degrade the constellation step by step and watch StarCDN's
// consistent hashing remap buckets and absorb the damage (§3.4 / §5.4).
//
//   $ ./failure_drill
#include <cinttypes>
#include <cstdio>

#include "core/scenario.h"
#include "core/simulator.h"

int main() {
  using namespace starcdn;

  core::Scenario recipe;
  recipe.workload.object_count = 60'000;
  recipe.workload.requests_per_weight = 30'000;
  recipe.workload.duration_s = 6 * util::kHour.value();
  recipe.failure_seed = 1234;

  for (const double fail_fraction : {0.0, 0.05, 0.097, 0.20, 0.35}) {
    recipe.fail_fraction = fail_fraction;
    const core::Scenario::Built s = recipe.build();
    const orbit::Constellation& shell = *s.shell;
    if (fail_fraction == 0.0) {  // first row: the workload and the header
      std::printf("workload: %" PRIu64 " requests over %.0f hours\n\n",
                  s.model->total_request_count(),
                  recipe.workload.duration_s / util::kHour.value());
      std::printf("%-18s %-10s %-12s %-10s %-10s %-12s\n", "failed fraction",
                  "active", "broken ISLs", "RHR", "BHR", "uplink save");
    }

    const auto cfg = core::SimConfig::Builder{}
                         .cache_capacity(util::gib(4))
                         .buckets(9)
                         .sample_latency(false)
                         .variant(core::Variant::kStarCdn)
                         .build();
    core::Simulator sim(shell, *s.schedule, cfg);
    sim.run(*s.model->generate_stream());

    const core::RunReport report = sim.finish();
    const auto& m = report.variant(core::Variant::kStarCdn).metrics;
    std::printf("%-18.1f %-10d %-12d %-10.1f %-10.1f %-12.1f\n",
                fail_fraction * 100.0, shell.active_count(),
                shell.isl_counts().broken, 100.0 * m.request_hit_rate(),
                100.0 * m.byte_hit_rate(),
                100.0 * (1.0 - m.normalized_uplink()));
  }

  std::printf(
      "\nAt the paper's measured 9.7%% out-of-slot rate StarCDN keeps most\n"
      "of its hit rate and uplink savings (paper: still saves 74%% of\n"
      "uplink, Section 5.4); degradation is graceful as failures grow.\n");
  return 0;
}
