// Sensitivity analysis: the reproduction's headline conclusion (StarCDN
// beats naive per-satellite LRU by a wide margin) must be robust to the
// calibrated workload and geometry assumptions, not an artifact of one
// parameter point. Sweeps popularity skew, content regionality, elevation
// mask, and constellation density.
#include "bench_common.h"

namespace {

using namespace starcdn;

trace::WorkloadParams base_params() {
  auto wp = trace::default_params(trace::TrafficClass::kVideo);
  wp.duration_s = 12 * util::kHour.value();
  wp.requests_per_weight = 75'000;
  return wp;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness(
      argc, argv, "Sensitivity — is the StarCDN advantage parameter-robust?",
      "reproduction methodology (EXPERIMENTS.md)");

  util::TextTable table({"Perturbation", "StarCDN RHR", "LRU RHR", "Gap"});
  // Replays one perturbed scenario and adds its row.
  const auto add = [&](const std::string& name,
                       const trace::WorkloadParams& wp,
                       const orbit::WalkerParams& shell_params,
                       double min_elevation_deg) {
    const trace::WorkloadModel workload(util::paper_cities(), wp);
    const orbit::Constellation shell{shell_params};
    sched::SchedulerParams sp;
    sp.min_elevation = util::Degrees{min_elevation_deg};
    const sched::LinkSchedule schedule(shell, util::paper_cities(),
                                       util::Seconds{wp.duration_s}, sp);
    core::SimConfig cfg;
    cfg.cache_capacity = util::gib(2);
    cfg.buckets = 9;
    cfg.sample_latency = false;
    const core::RunReport report = harness.simulate(
        shell, schedule, *workload.generate_stream(), cfg,
        {core::Variant::kStarCdn, core::Variant::kVanillaLru},
        "sensitivity_" + std::to_string(table.rows()));
    const double star =
        report.variant(core::Variant::kStarCdn).metrics.request_hit_rate();
    const double lru =
        report.variant(core::Variant::kVanillaLru).metrics.request_hit_rate();
    table.add_row({name, util::fmt_pct(star), util::fmt_pct(lru),
                   util::fmt((star - lru) * 100.0, 1) + " pts"});
    std::printf("  done: %s\n", name.c_str());
  };

  const orbit::WalkerParams full_shell;
  add("baseline (alpha=1.2, 25 deg mask)", base_params(), full_shell, 25.0);

  for (const double alpha : {0.9, 1.05, 1.35}) {
    auto wp = base_params();
    wp.zipf_alpha = alpha;
    add("zipf alpha = " + util::fmt(alpha, 2), wp, full_shell, 25.0);
  }
  {
    auto wp = base_params();
    wp.cross_region = 0.05;
    wp.same_language_family = 0.1;
    add("highly regional content", wp, full_shell, 25.0);
  }
  {
    auto wp = base_params();
    wp.global_fraction = 0.3;
    add("30% global content", wp, full_shell, 25.0);
  }
  add("40 deg elevation mask", base_params(), full_shell, 40.0);
  {
    orbit::WalkerParams sparse;
    sparse.planes = 36;
    sparse.slots_per_plane = 18;
    add("half-density shell (36x18)", base_params(), sparse, 25.0);
  }

  table.print(std::cout, "Sensitivity sweep (StarCDN L=9 vs naive LRU)");
  table.write_csv(harness.out_dir() + "/sensitivity.csv");
  std::cout << "\nRobustness criterion: the StarCDN-vs-LRU gap stays large\n"
               "and positive at every perturbation; absolute levels move\n"
               "with the workload, the ordering must not.\n";
  return 0;
}
