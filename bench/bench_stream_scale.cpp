// Paper-scale streaming gate: generate and replay a >=100M-request video
// trace through the simulator WITHOUT ever materializing it, and assert
// the process stays under a fixed RSS budget (--rss-budget-mb; CI wires
// this to the smoke job). A materialized trace would need ~32 bytes/request
// (~3.2 GB at 100M) before the simulator even starts; the stream holds one
// SoA chunk plus the generator's buffer of the next few minutes, whatever
// the --scale.
//
//   $ bench_stream_scale --scale=61 --rss-budget-mb=1500
//
// Defaults to a small scale so the binary is cheap to run by hand; the CI
// smoke job passes the paper-scale flags explicitly.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace starcdn;
  bench::Harness harness(argc, argv,
                         "paper-scale streamed replay (bounded RSS)",
                         "Section 4.2 (SpaceGEN at production scale)");
  harness.default_scale(1.0);

  const auto total = harness.scenario().model->total_request_count();

  core::SimConfig cfg;
  cfg.cache_capacity = util::gib(8);
  cfg.buckets = 9;
  cfg.sample_latency = false;

  bench::WallTimer timer;
  const core::RunReport report =
      harness.simulate(cfg, {core::Variant::kStarCdn}, "stream_scale");
  const double wall = timer.seconds();

  const auto& m = report.variant(core::Variant::kStarCdn).metrics;
  std::printf(
      "streamed %llu requests in %.1f s (%.2f Mreq/s): request hit rate "
      "%.2f%%, byte hit rate %.2f%%\n",
      static_cast<unsigned long long>(total), wall,
      static_cast<double>(total) / wall / 1e6, 100.0 * m.request_hit_rate(),
      100.0 * m.byte_hit_rate());
  return 0;
}
