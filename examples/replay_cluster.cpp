// Cluster replayer demo: run the StarCDN request pipeline across
// per-satellite cache workers connected by real TCP loopback sockets —
// the paper's evaluation harness architecture (§5.1). The orchestrator is
// the ordinary simulator over remote caches, so the summary is the one
// starcdn_sim prints for the same config.
//
//   $ ./replay_cluster
//
// It takes no arguments; any argument prints a usage line and exits 1.
#include <chrono>
#include <cstdio>
#include <iostream>

#include "core/run_report.h"
#include "core/scenario.h"
#include "replay/replayer.h"

int main(int argc, char** argv) {
  using namespace starcdn;

  if (argc > 1) {
    std::fprintf(stderr,
                 "replay_cluster: unexpected argument '%s'\n"
                 "usage: replay_cluster\n",
                 argv[1]);
    return 1;
  }

  // A compact shell keeps the worker count (= thread count) reasonable.
  core::Scenario recipe;
  recipe.shell.planes = 8;
  recipe.shell.slots_per_plane = 6;
  recipe.workload.object_count = 20'000;
  recipe.workload.requests_per_weight = 6'000;
  recipe.workload.duration_s = util::kHour.value();
  const core::Scenario::Built s = recipe.build();

  const auto cfg = core::SimConfig::Builder{}
                       .cache_capacity(util::gib(1))
                       .buckets(4)
                       .build();

  // Stream the trace straight from the generator: the replay never holds
  // more than one chunk of requests in memory.
  const auto stream = s.model->generate_stream();
  std::printf(
      "spawning %d cache workers over TCP loopback, streaming %llu "
      "requests...\n",
      s.shell->size(),
      static_cast<unsigned long long>(s.model->total_request_count()));
  const auto t0 = std::chrono::steady_clock::now();
  const auto report =
      replay::replay_cluster(*s.shell, *s.schedule, *stream, cfg);
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();

  const auto requests =
      report.variant(core::Variant::kStarCdn).metrics.requests;
  std::printf("\nreplayed %llu requests in %.2f s (%.0f req/s)\n\n",
              static_cast<unsigned long long>(requests), elapsed,
              static_cast<double>(requests) / elapsed);
  report.write_summary(std::cout);
  return 0;
}
