// Fig. 6: SpaceGEN fidelity — the synthetic trace must match the
// production trace in (a) object spread, (b) traffic spread, (c/d) hit
// rates of a terrestrial LRU cache, and (e/f) hit rates of a satellite
// (orbiting) LRU cache.
#include <unordered_map>
#include <unordered_set>

#include "bench_common.h"

#include "cache/lru.h"
#include "trace/spacegen.h"
#include "util/histogram.h"

namespace {

using namespace starcdn;

util::Histogram spread(const trace::MultiTrace& traces, bool weighted) {
  std::unordered_map<trace::ObjectId, std::unordered_set<std::uint16_t>> locs;
  std::unordered_map<trace::ObjectId, double> bytes;
  for (const auto& t : traces) {
    for (const auto& r : t.requests) {
      locs[r.object].insert(t.location);
      bytes[r.object] += static_cast<double>(r.size);
    }
  }
  util::Histogram h(0.5, 9.5, 9);
  for (const auto& [id, set] : locs) {
    h.add(static_cast<double>(set.size()), weighted ? bytes[id] : 1.0);
  }
  return h;
}

double terrestrial_lru(const trace::LocationTrace& t, util::Bytes cap,
                       bool byte_rate) {
  cache::LruCache c(cap);
  for (const auto& r : t.requests) c.access(r.object, r.size);
  return byte_rate ? c.stats().byte_hit_rate() : c.stats().request_hit_rate();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness(
      argc, argv, "Fig. 6 — SpaceGEN synthetic vs production traces",
      "Fig. 6a-6f, Section 4.3");

  // Production trace (our Akamai substitution) at a moderate scale.
  core::Scenario recipe;
  recipe.workload.object_count = 120'000;
  recipe.workload.requests_per_weight = 60'000;
  const core::Scenario::Built scenario = harness.shaped(recipe).build();
  const auto production = scenario.model->generate();

  // Fit SpaceGEN and regenerate a trace of comparable volume.
  const auto gen = trace::SpaceGen::fit(production);
  trace::SpaceGenConfig cfg;
  std::size_t max_len = 0;
  for (const auto& t : production) max_len = std::max(max_len, t.requests.size());
  cfg.target_requests_per_location = max_len;
  const auto synthetic = gen.generate(cfg);

  // --- Fig. 6a/6b: spread CDFs ---------------------------------------------
  for (const bool weighted : {false, true}) {
    const auto p = spread(production, weighted);
    const auto s = spread(synthetic, weighted);
    util::TextTable table({"Locations", "Production CDF", "Synthetic CDF"});
    const auto pc = p.cdf();
    const auto sc = s.cdf();
    for (std::size_t i = 0; i < pc.size(); ++i) {
      table.add_row({std::to_string(i + 1), util::fmt(pc[i], 3),
                     util::fmt(sc[i], 3)});
    }
    const std::string name = weighted ? "6b traffic spread" : "6a object spread";
    table.print(std::cout, "Fig. " + name);
    table.write_csv(harness.out_dir() + "/fig" +
                    (weighted ? std::string("6b_traffic_spread")
                              : std::string("6a_object_spread")) +
                    ".csv");
    std::printf("Total-variation distance: %.3f (paper: curves overlap)\n",
                p.tv_distance(s));
  }

  // --- Fig. 6c/6d: terrestrial LRU hit-rate curves ---------------------------
  const std::vector<std::pair<std::string, util::Bytes>> caps = {
      {"100", util::gib(2)},  {"250", util::gib(5)}, {"500", util::gib(10)},
      {"750", util::gib(15)}, {"1000", util::gib(20)}};
  for (const bool byte_rate : {false, true}) {
    util::TextTable table({"Cache(GB)", "Production", "Synthetic", "Gap"});
    double gaps = 0.0;
    for (const auto& [label, cap] : caps) {
      const double p = terrestrial_lru(production[4], cap, byte_rate);
      const double s = terrestrial_lru(synthetic[4], cap, byte_rate);
      gaps += std::abs(p - s);
      table.add_row({label, util::fmt_pct(p), util::fmt_pct(s),
                     util::fmt_pct(std::abs(p - s))});
    }
    table.print(std::cout, byte_rate ? "Fig. 6d CDN byte hit rate"
                                     : "Fig. 6c CDN request hit rate");
    table.write_csv(harness.out_dir() +
                    (byte_rate ? "/fig6d_cdn_bhr.csv" : "/fig6c_cdn_rhr.csv"));
    std::printf(
        "Mean gap: %.2f%% (paper: %.1f%% at ~250x our request density;\n"
        "the known deviation is documented in EXPERIMENTS.md — the synthetic\n"
        "trace under-emits one-hit objects at small trace lengths, which\n"
        "only shows up in single-cache cold-miss-dominated simulations)\n",
        gaps / static_cast<double>(caps.size()) * 100, byte_rate ? 0.3 : 0.4);
  }

  // --- Fig. 6e/6f: satellite LRU hit-rate curves -----------------------------
  const auto satellite_rates = [&](const trace::MultiTrace& traces,
                                   util::Bytes cap, const std::string& tag) {
    core::SimConfig sim_cfg;
    sim_cfg.cache_capacity = cap;
    sim_cfg.sample_latency = false;
    const auto requests = trace::merge_by_time(traces);
    trace::VectorStream stream(requests);
    const core::RunReport report = harness.simulate(
        scenario, stream, sim_cfg, {core::Variant::kVanillaLru},
        "fig6_" + tag);
    const auto& m = report.variant(core::Variant::kVanillaLru).metrics;
    return std::pair{m.request_hit_rate(), m.byte_hit_rate()};
  };
  util::TextTable sat_table({"Cache(GB)", "Prod RHR", "Synth RHR", "Prod BHR",
                             "Synth BHR"});
  double rhr_gap = 0.0, bhr_gap = 0.0;
  const std::vector<std::pair<std::string, util::Bytes>> sat_caps = {
      {"20", util::mib(512)}, {"50", util::gib(1)}, {"100", util::gib(2)}};
  for (const auto& [label, cap] : sat_caps) {
    const auto [pr, pb] = satellite_rates(production, cap, "prod_" + label);
    const auto [sr, sb] = satellite_rates(synthetic, cap, "synth_" + label);
    rhr_gap += std::abs(pr - sr);
    bhr_gap += std::abs(pb - sb);
    sat_table.add_row({label, util::fmt_pct(pr), util::fmt_pct(sr),
                       util::fmt_pct(pb), util::fmt_pct(sb)});
  }
  sat_table.print(std::cout, "Fig. 6e/6f satellite LRU hit rates");
  sat_table.write_csv(harness.out_dir() + "/fig6ef_satellite_lru.csv");
  std::printf(
      "Mean gaps: request %.2f%%, byte %.2f%% (paper: 2%% / 1%%).\n"
      "Conclusion to reproduce: synthetic traces can stand in for\n"
      "production traces in satellite-CDN simulation.\n",
      rhr_gap / static_cast<double>(sat_caps.size()) * 100,
      bhr_gap / static_cast<double>(sat_caps.size()) * 100);
  return 0;
}
