// Fig. 8: ground-to-satellite uplink usage of each scheme, normalized to
// plain Starlink with no cache (every byte fetched from the ground).
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace starcdn;
  bench::Harness harness(
      argc, argv, "Fig. 8 — normalized uplink usage (L=9)",
      "Fig. 8, Section 5.2");
  (void)harness.scenario();  // built before the sweep shares it

  const std::vector<core::Variant> order = {core::Variant::kVanillaLru,
                                            core::Variant::kRelayOnly,
                                            core::Variant::kHashOnly,
                                            core::Variant::kStarCdn};
  util::TextTable table({"Cache(GB)", "LRU", "StarCDN-Hashing",
                         "StarCDN-Fetch", "StarCDN"});
  auto rows = bench::sweep_capacity_axis(
      "fig8", [&](const std::string& label, util::Bytes capacity) {
        core::SimConfig cfg;
        cfg.cache_capacity = capacity;
        cfg.buckets = 9;
        cfg.sample_latency = false;
        const core::RunReport report =
            harness.simulate(cfg, order, "fig8_" + label);
        std::vector<std::string> row{label};
        for (const auto v : order) {
          row.push_back(
              util::fmt_pct(report.variant(v).metrics.normalized_uplink()));
        }
        return row;
      });
  for (auto& row : rows) table.add_row(std::move(row));
  table.print(std::cout, "Fig. 8: uplink usage (% of no-cache Starlink)");
  table.write_csv(harness.out_dir() + "/fig8_uplink.csv");
  {
    // Physical-budget check (Table 1: each GSL carries 20 Gbps): peak
    // per-satellite-epoch uplink throughput must stay far below capacity.
    core::SimConfig cfg;
    cfg.cache_capacity = util::gib(2);
    cfg.buckets = 9;
    cfg.sample_latency = false;
    const core::RunReport report =
        harness.simulate(cfg, {core::Variant::kStarCdn}, "fig8_budget");
    const auto& meter =
        report.variant(core::Variant::kStarCdn).metrics.uplink_meter;
    std::printf(
        "\nGSL budget check (StarCDN): mean %.3f Gbps, peak %.3f Gbps per "
        "satellite-epoch, %llu/%zu cells over the 20 Gbps budget.\n",
        meter.throughput_gbps().mean(), meter.throughput_gbps().max(),
        static_cast<unsigned long long>(meter.overloaded_cells()),
        meter.throughput_gbps().count());
  }
  std::cout << "\nPaper shape: LRU ~30-35%, StarCDN ~20-25% (an ~80% saving\n"
               "vs no cache); StarCDN strictly lowest at every size.\n";
  return 0;
}
