// Fig. 10: end-to-end latency CDFs — StarCDN and StarCDN-Fetch (L=4 and
// L=9) against the terrestrial-CDN and bent-pipe Starlink baselines plus
// the Static Cache north star.
#include "bench_common.h"

#include "net/latency_model.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace starcdn;
  bench::Harness harness(argc, argv, "Fig. 10 — latency CDFs",
                         "Fig. 10a/10b, Section 5.3");
  harness.default_scale(0.5);

  // Analytic baselines (Cloudflare AIM substitution, DESIGN.md §3).
  const net::LatencyModel latency;
  util::Rng rng(99);
  util::QuantileSampler terrestrial, bentpipe;
  for (int i = 0; i < 200'000; ++i) {
    terrestrial.add(latency.terrestrial_cdn(rng.normal_draw()).value());
    bentpipe.add(
        latency.bentpipe_starlink(latency.params().default_gsl,
                                  rng.normal_draw()).value());
  }

  // Simulated StarCDN variants.
  std::map<std::string, const util::QuantileSampler*> series;
  series["TerrestrialCDN"] = &terrestrial;
  series["Starlink(no cache)"] = &bentpipe;

  std::map<int, core::RunReport> reports;  // by L; `series` points in here
  for (const int buckets : {4, 9}) {
    core::SimConfig cfg;
    cfg.cache_capacity = util::gib(8);
    cfg.buckets = buckets;
    std::vector<core::Variant> variants{core::Variant::kStarCdn,
                                        core::Variant::kHashOnly};
    if (buckets == 4) variants.push_back(core::Variant::kStatic);
    const std::string l = "L" + std::to_string(buckets);
    const core::RunReport& report = reports[buckets] =
        harness.simulate(cfg, variants, "fig10_" + l);
    const auto samples = [&](core::Variant v) {
      return &report.variant(v).metrics.latency_ms;
    };
    series["StarCDN-" + l] = samples(core::Variant::kStarCdn);
    series["StarCDN-Fetch-" + l] = samples(core::Variant::kHashOnly);
    if (buckets == 4) series["StaticCache"] = samples(core::Variant::kStatic);
  }

  std::vector<std::string> header{"quantile"};
  for (const auto& [name, q] : series) header.push_back(name);
  util::TextTable table(header);
  for (const double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}) {
    std::vector<std::string> row{util::fmt(q, 2)};
    for (const auto& [name, sampler] : series) {
      row.push_back(util::fmt(sampler->quantile(q), 1));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout, "Fig. 10: latency quantiles (ms)");
  table.write_csv(harness.out_dir() + "/fig10_latency_cdf.csv");

  const double star_median = series["StarCDN-L4"]->median();
  const double pipe_median = bentpipe.median();
  std::printf(
      "\nMedians: StarCDN %.1f ms vs bent-pipe Starlink %.1f ms -> %.1fx "
      "improvement (paper: 22 ms vs 55 ms, 2.5x).\n"
      "Paper shapes: terrestrial CDN fastest; StarCDN well under bent-pipe;\n"
      "long miss tail; L=9 slightly better body, worse relay tail.\n",
      star_median, pipe_median, pipe_median / star_median);
  return 0;
}
