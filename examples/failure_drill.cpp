// Failure drill: degrade the constellation step by step and watch StarCDN's
// consistent hashing remap buckets and absorb the damage (§3.4 / §5.4).
//
//   $ ./failure_drill
#include <cinttypes>
#include <cstdio>

#include "core/simulator.h"
#include "net/isl_graph.h"
#include "trace/workload.h"
#include "util/geo.h"

int main() {
  using namespace starcdn;

  auto p = trace::default_params(trace::TrafficClass::kVideo);
  p.object_count = 60'000;
  p.requests_per_weight = 30'000;
  p.duration_s = 6 * util::kHour.value();
  const trace::WorkloadModel workload(util::paper_cities(), p);
  std::printf("workload: %" PRIu64 " requests over %.0f hours\n\n",
              workload.total_request_count(),
              p.duration_s / util::kHour.value());

  std::printf("%-18s %-10s %-12s %-10s %-10s %-12s\n", "failed fraction",
              "active", "broken ISLs", "RHR", "BHR", "uplink save");
  for (const double fail_fraction : {0.0, 0.05, 0.097, 0.20, 0.35}) {
    orbit::Constellation shell{orbit::WalkerParams{}};
    util::Rng rng(1234);
    if (fail_fraction > 0.0) shell.knock_out_random(fail_fraction, rng);
    const net::IslGraph graph(shell);
    const sched::LinkSchedule schedule(shell, util::paper_cities(),
                                       util::Seconds{p.duration_s});

    const auto cfg = core::SimConfig::Builder{}
                         .cache_capacity(util::gib(4))
                         .buckets(9)
                         .sample_latency(false)
                         .variant(core::Variant::kStarCdn)
                         .build();
    core::Simulator sim(shell, schedule, cfg);
    sim.run(*workload.generate_stream());

    const core::RunReport report = sim.finish();
    const auto& m = report.variant(core::Variant::kStarCdn).metrics;
    std::printf("%-18.1f %-10d %-12d %-10.1f %-10.1f %-12.1f\n",
                fail_fraction * 100.0, shell.active_count(),
                graph.broken_edge_count(), 100.0 * m.request_hit_rate(),
                100.0 * m.byte_hit_rate(),
                100.0 * (1.0 - m.normalized_uplink()));
  }

  std::printf(
      "\nAt the paper's measured 9.7%% out-of-slot rate StarCDN keeps most\n"
      "of its hit rate and uplink savings (paper: still saves 74%% of\n"
      "uplink, Section 5.4); degradation is graceful as failures grow.\n");
  return 0;
}
