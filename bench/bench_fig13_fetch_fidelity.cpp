// Fig. 13 (appendix): SpaceGEN fidelity under the StarCDN-Fetch
// architecture — the synthetic trace must drive the hashed satellite
// system to the same hit rates as the production trace.
#include "bench_common.h"

#include "trace/spacegen.h"

int main(int argc, char** argv) {
  using namespace starcdn;
  bench::Harness harness(
      argc, argv, "Fig. 13 — fidelity under StarCDN-Fetch emulation",
      "Fig. 13a-13d, Appendix A.2");

  core::Scenario recipe;
  recipe.workload.object_count = 120'000;
  recipe.workload.requests_per_weight = 60'000;
  const core::Scenario::Built s = harness.shaped(recipe).build();
  const auto production = s.model->generate();

  const auto gen = trace::SpaceGen::fit(production);
  trace::SpaceGenConfig cfg;
  std::size_t max_len = 0;
  for (const auto& t : production) max_len = std::max(max_len, t.requests.size());
  cfg.target_requests_per_location = max_len;
  const auto synthetic = gen.generate(cfg);

  const auto fetch_rates = [&](const trace::MultiTrace& traces,
                               util::Bytes cap, const std::string& tag) {
    core::SimConfig sim_cfg;
    sim_cfg.cache_capacity = cap;
    sim_cfg.buckets = 4;
    sim_cfg.sample_latency = false;
    const auto requests = trace::merge_by_time(traces);
    trace::VectorStream stream(requests);
    const core::RunReport report = harness.simulate(
        s, stream, sim_cfg,
        {core::Variant::kHashOnly},  // StarCDN-Fetch architecture
        tag);
    const auto& m = report.variant(core::Variant::kHashOnly).metrics;
    return std::pair{m.request_hit_rate(), m.byte_hit_rate()};
  };

  util::TextTable table({"Cache(GB)", "Prod RHR", "Synth RHR", "Prod BHR",
                         "Synth BHR"});
  double rhr_gap = 0.0, bhr_gap = 0.0;
  const std::vector<std::pair<std::string, util::Bytes>> caps = {
      {"20", util::mib(512)}, {"50", util::gib(1)}, {"100", util::gib(2)}};
  for (const auto& [label, cap] : caps) {
    const auto [pr, pb] = fetch_rates(production, cap, "fig13_prod_" + label);
    const auto [sr, sb] = fetch_rates(synthetic, cap, "fig13_synth_" + label);
    rhr_gap += std::abs(pr - sr);
    bhr_gap += std::abs(pb - sb);
    table.add_row({label, util::fmt_pct(pr), util::fmt_pct(sr),
                   util::fmt_pct(pb), util::fmt_pct(sb)});
  }
  table.print(std::cout, "Fig. 13c/13d StarCDN-Fetch hit rates");
  table.write_csv(harness.out_dir() + "/fig13_fetch_fidelity.csv");
  std::printf(
      "Mean gaps under StarCDN-Fetch: request %.2f%%, byte %.2f%%\n"
      "(paper: 'difference between the two traces is small').\n",
      rhr_gap / static_cast<double>(caps.size()) * 100,
      bhr_gap / static_cast<double>(caps.size()) * 100);
  return 0;
}
