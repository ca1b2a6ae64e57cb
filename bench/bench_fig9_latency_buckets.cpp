// Fig. 9: the L tradeoff — worst-case routing latency to the correct hash
// bucket (points) and request hit rate with a small cache (curve), as a
// function of the number of buckets L.
#include "bench_common.h"

#include "core/bucket_mapper.h"
#include "net/latency_model.h"

int main(int argc, char** argv) {
  using namespace starcdn;
  bench::Harness harness(
      argc, argv, "Fig. 9 — routing latency and hit rate vs bucket count L",
      "Fig. 9, Section 5.3");
  const orbit::Constellation& shell = *harness.scenario().shell;
  const net::LatencyModel latency;

  util::TextTable table({"L", "Worst-case hops", "Worst routing RTT (ms)",
                         "Request hit rate @ small cache"});
  for (const int buckets : {1, 4, 9, 16, 25}) {
    core::SimConfig cfg;
    cfg.cache_capacity = util::gib(1);  // the paper's smallest (10 GB) point
    cfg.buckets = buckets;
    cfg.sample_latency = false;
    const core::RunReport report = harness.simulate(
        cfg, {core::Variant::kHashOnly}, "fig9_L" + std::to_string(buckets));

    const core::BucketMapper mapper(shell, buckets);
    const int side = mapper.tile_side();
    const int half = side / 2;
    // Worst case: half-tile of inter-orbit hops plus half-tile of
    // intra-orbit hops, each way.
    const double worst_rtt =
        2.0 * latency.grid_hops_delay(half, half).value();
    table.add_row({std::to_string(buckets),
                   std::to_string(mapper.worst_case_hops()),
                   util::fmt(worst_rtt, 1),
                   util::fmt_pct(report.variant(core::Variant::kHashOnly)
                                     .metrics.request_hit_rate())});
  }
  table.print(std::cout, "Fig. 9: latency/hit-rate tradeoff in L");
  table.write_csv(harness.out_dir() + "/fig9_latency_buckets.csv");
  std::cout <<
      "\nPaper shapes: hit rate grows with L; worst-case RTT identical for\n"
      "L=4 and L=9 (2*floor(sqrt(L)/2) is 2 hops for both) and jumps to\n"
      "~40 ms beyond L=9, which the paper calls unaffordable.\n";
  return 0;
}
