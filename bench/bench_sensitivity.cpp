// Sensitivity analysis: the reproduction's headline conclusion (StarCDN
// beats naive per-satellite LRU by a wide margin) must be robust to the
// calibrated workload and geometry assumptions, not an artifact of one
// parameter point. Sweeps popularity skew, content regionality, elevation
// mask, and constellation density.
#include "bench_common.h"

namespace {

using namespace starcdn;

core::Scenario baseline() {
  core::Scenario s;
  s.workload.duration_s = 12 * util::kHour.value();
  s.workload.requests_per_weight = 75'000;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness(
      argc, argv, "Sensitivity — is the StarCDN advantage parameter-robust?",
      "reproduction methodology (EXPERIMENTS.md)");

  util::TextTable table({"Perturbation", "StarCDN RHR", "LRU RHR", "Gap"});
  // Replays one perturbed scenario and adds its row.
  const auto add = [&](const std::string& name, const core::Scenario& recipe) {
    const core::Scenario::Built s = harness.shaped(recipe).build();
    core::SimConfig cfg;
    cfg.cache_capacity = util::gib(2);
    cfg.buckets = 9;
    cfg.sample_latency = false;
    const core::RunReport report = harness.simulate(
        s, *s.model->generate_stream(), cfg,
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

  add("baseline (alpha=1.2, 25 deg mask)", baseline());
  for (const double alpha : {0.9, 1.05, 1.35}) {
    auto r = baseline();
    r.workload.zipf_alpha = alpha;
    add("zipf alpha = " + util::fmt(alpha, 2), r);
  }
  {
    auto r = baseline();
    r.workload.cross_region = 0.05;
    r.workload.same_language_family = 0.1;
    add("highly regional content", r);
  }
  {
    auto r = baseline();
    r.workload.global_fraction = 0.3;
    add("30% global content", r);
  }
  {
    auto r = baseline();
    r.scheduler.min_elevation = util::Degrees{40.0};
    add("40 deg elevation mask", r);
  }
  {
    auto r = baseline();
    r.shell.planes = 36;
    add("half-density shell (36x18)", r);
  }

  table.print(std::cout, "Sensitivity sweep (StarCDN L=9 vs naive LRU)");
  table.write_csv(harness.out_dir() + "/sensitivity.csv");
  std::cout << "\nRobustness criterion: the StarCDN-vs-LRU gap stays large\n"
               "and positive at every perturbation; absolute levels move\n"
               "with the workload, the ordering must not.\n";
  return 0;
}
