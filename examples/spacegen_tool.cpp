// SpaceGEN command-line tool: generate synthetic multi-location CDN traces
// (the paper's open-source artifact, reimplemented).
//
//   $ ./spacegen_tool [class] [requests_per_location] [output_dir]
//
//   class                 video | web | download   (default video)
//   requests_per_location synthetic trace length   (default 50000)
//   output_dir            where .bin/.csv traces go (default ./spacegen_out)
//
// Pipeline: synthesize a production-like workload, fit the traffic models
// (per-location pFDs + the cross-location GPD), run Algorithm 1, report
// fidelity, and write the traces to disk.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "trace/model_io.h"
#include "trace/spacegen.h"
#include "trace/trace_io.h"
#include "trace/workload.h"
#include "util/geo.h"

int main(int argc, char** argv) {
  using namespace starcdn;

  const std::string cls = argc > 1 ? argv[1] : "video";
  const std::size_t target =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 50'000;
  const std::string out_dir = argc > 3 ? argv[3] : "spacegen_out";

  trace::TrafficClass traffic_class = trace::TrafficClass::kVideo;
  if (cls == "web") traffic_class = trace::TrafficClass::kWeb;
  else if (cls == "download") traffic_class = trace::TrafficClass::kDownload;
  else if (cls != "video") {
    std::fprintf(stderr, "unknown class '%s' (video|web|download)\n",
                 cls.c_str());
    return 1;
  }

  // 1. Production-like source trace (see DESIGN.md for the substitution).
  auto params = trace::default_params(traffic_class);
  params.object_count = std::min<std::size_t>(params.object_count, 150'000);
  params.requests_per_weight =
      std::min<std::size_t>(params.requests_per_weight, 60'000);
  const trace::WorkloadModel workload(util::paper_cities(), params);
  const auto production = workload.generate();
  std::size_t prod_total = 0;
  for (const auto& t : production) prod_total += t.requests.size();
  std::printf("[1/4] production workload: %zu requests, class=%s\n",
              prod_total, cls.c_str());

  // 2. Fit the traffic models.
  const auto gen = trace::SpaceGen::fit(production);
  std::printf("[2/4] fitted models: GPD over %zu objects, %zu pFDs\n",
              gen.gpd().object_count(), gen.pfds().size());

  // 3. Run Algorithm 1.
  trace::SpaceGenConfig cfg;
  cfg.target_requests_per_location = target;
  const auto synthetic = gen.generate(cfg);
  std::size_t synth_total = 0;
  for (const auto& t : synthetic) synth_total += t.requests.size();
  std::printf("[3/4] Algorithm 1 generated %zu synthetic requests\n",
              synth_total);

  // 4. Persist + report.
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  for (const auto& t : synthetic) {
    const std::string base = out_dir + "/" + t.location_name;
    trace::VectorStream requests(t.requests);
    trace::write_binary_stream(requests, base + ".bin");
    trace::write_csv(t, base + ".csv");
  }
  save_models(gen, out_dir + "/models.bin");
  std::printf("[4/4] wrote %zu location traces and models.bin to %s/\n",
              synthetic.size(), out_dir.c_str());

  for (std::size_t i = 0; i < synthetic.size(); ++i) {
    std::printf("  %-12s %8zu requests  %7.2f GB\n",
                synthetic[i].location_name.c_str(),
                synthetic[i].requests.size(),
                static_cast<double>(synthetic[i].total_bytes()) / 1e9);
  }
  return 0;
}
