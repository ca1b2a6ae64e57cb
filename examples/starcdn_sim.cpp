// starcdn_sim: the full simulator behind a command line — the entry point a
// downstream user would script parameter sweeps with.
//
//   $ ./starcdn_sim [options]
//     --class video|web|download     traffic class           (video)
//     --variants a,b,c               comma list of: static,lru,hash,relay,
//                                    starcdn,prefetch        (starcdn,lru)
//     --capacity-gib N               per-satellite cache     (2)
//     --buckets L                    hash buckets, square    (4)
//     --policy lru|lfu|fifo|sieve|slru|gdsf                 (lru)
//     --hours H                      trace duration          (6)
//     --scale S                      request volume scale    (0.25)
//     --fail-fraction F              out-of-slot fraction    (0)
//     --transient-prob P             transient outage prob   (0)
//     --global-cities                use the 27-city world set
//     --csv PATH                     append one CSV row per variant
//     --seed N                       workload + simulator seed
//     --series-csv PREFIX            per-variant epoch time-series CSVs
//                                    (PREFIX<variant>.csv)
//     --trace PATH                   chrome://tracing JSON timeline
//     --json PATH                    full RunReport as JSON
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/scenario.h"
#include "core/simulator.h"
#include "obs/tracer.h"
#include "util/csv.h"

namespace {

using namespace starcdn;

core::Variant parse_variant(const std::string& name) {
  if (name == "static") return core::Variant::kStatic;
  if (name == "lru") return core::Variant::kVanillaLru;
  if (name == "hash") return core::Variant::kHashOnly;
  if (name == "relay") return core::Variant::kRelayOnly;
  if (name == "starcdn") return core::Variant::kStarCdn;
  if (name == "prefetch") return core::Variant::kPrefetch;
  throw std::invalid_argument("unknown variant: " + name);
}

trace::TrafficClass parse_class(const std::string& name) {
  using enum trace::TrafficClass;
  for (const auto c : {kVideo, kWeb, kDownload}) {
    if (name == trace::to_string(c)) return c;
  }
  throw std::invalid_argument("'" + name + "' is not video, web or download");
}

/// All of `text` as a T; a double must also be finite.
template <typename T>
T number(const std::string& text) {
  T v{};
  if (const char* why = util::parse_number(text, v)) {
    throw std::invalid_argument("'" + text + "' " + why);
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) {
      throw std::invalid_argument("'" + text + "' is not finite");
    }
  }
  return v;
}

double positive(const std::string& text) {
  const auto v = number<double>(text);
  if (!(v > 0.0)) throw std::invalid_argument("'" + text + "' is not positive");
  return v;
}

double fraction(const std::string& text) {
  const auto v = number<double>(text);
  if (v < 0.0 || v > 1.0) {
    throw std::invalid_argument("'" + text + "' is outside [0, 1]");
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  trace::TrafficClass traffic_class = trace::TrafficClass::kVideo;
  std::string variants_arg = "starcdn,lru", policy = "lru";
  std::string csv_path, series_prefix, trace_path, json_path;
  double capacity_gib = 2.0, hours = 6.0, scale = 0.25;
  double fail_fraction = 0.0, transient_prob = 0.0;
  std::uint64_t seed = 0;
  int buckets = 4;
  bool global = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--class") traffic_class = parse_class(next());
      else if (a == "--variants") variants_arg = next();
      else if (a == "--capacity-gib") capacity_gib = positive(next());
      else if (a == "--buckets") buckets = number<int>(next());
      else if (a == "--policy") policy = next();
      else if (a == "--hours") hours = positive(next());
      else if (a == "--scale") scale = positive(next());
      else if (a == "--fail-fraction") fail_fraction = fraction(next());
      else if (a == "--transient-prob") transient_prob = fraction(next());
      else if (a == "--global-cities") global = true;
      else if (a == "--csv") csv_path = next();
      else if (a == "--seed") seed = number<std::uint64_t>(next());
      else if (a == "--series-csv") series_prefix = next();
      else if (a == "--trace") trace_path = next();
      else if (a == "--json") json_path = next();
      else {
        std::fprintf(stderr, "unknown option %s (see header comment)\n",
                     a.c_str());
        return 1;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad argument for %s: %s\n", a.c_str(), e.what());
      return 1;
    }
  }

  // Tracing observes phase structure only; install before schedule
  // construction so LinkSchedule::build lands on the timeline.
  obs::Tracer tracer;
  if (!trace_path.empty()) obs::set_tracer(&tracer);
  try {
    core::Scenario recipe;
    if (global) recipe.cities = &util::global_cities();
    recipe.workload = trace::default_params(traffic_class);
    recipe.workload.duration_s = hours * util::kHour.value();
    recipe.workload.requests_per_weight = static_cast<std::size_t>(
        static_cast<double>(recipe.workload.requests_per_weight) * scale);
    if (seed != 0) recipe.workload.seed = seed;
    recipe.fail_fraction = fail_fraction;
    recipe.failure_seed = 4242;
    const core::Scenario::Built s = recipe.build();

    core::SimConfig::Builder builder;
    builder.cache_capacity(util::gib(capacity_gib))
        .buckets(buckets)
        .policy(cache::parse_policy(policy))
        .transient_failures(transient_prob, util::Seconds{300.0});
    if (seed != 0) builder.seed(seed);

    std::vector<core::Variant> variants;
    std::stringstream ss(variants_arg);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      variants.push_back(parse_variant(tok));
      builder.variant(variants.back());
    }
    core::Simulator sim(*s.shell, *s.schedule, builder.build());

    std::printf(
        "class=%s cities=%zu requests=%" PRIu64 " cache=%.1fGiB L=%d "
        "policy=%s fail=%.1f%% transient=%.1f%%\n",
        trace::to_string(traffic_class), recipe.cities->size(),
        s.model->total_request_count(), capacity_gib, buckets, policy.c_str(),
        100 * fail_fraction, 100 * transient_prob);
    sim.run(*s.model->generate_stream());
    const core::RunReport report = sim.finish();

    // The report is the run's one output: summary to stdout, optional
    // time-series CSVs and the chrome trace alongside.
    report.write_summary(std::cout);
    if (!series_prefix.empty()) {
      for (const auto& p : report.write_series_csv_files(series_prefix)) {
        std::printf("series: %s\n", p.c_str());
      }
    }
    if (!trace_path.empty() && tracer.write_json(trace_path)) {
      std::printf("trace: %s (open in ui.perfetto.dev)\n", trace_path.c_str());
    }
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      report.write_json(out);
      if (out) std::printf("report: %s\n", json_path.c_str());
    }

    if (!csv_path.empty()) {
      util::CsvWriter w(csv_path);
      w.row({"variant", "class", "capacity_gib", "buckets", "policy", "rhr",
             "bhr", "uplink", "p50_ms", "p95_ms"});
      for (const auto v : variants) {
        const auto& m = report.variant(v).metrics;
        w.row({core::to_string(v), trace::to_string(traffic_class),
               std::to_string(capacity_gib),
               std::to_string(buckets), policy,
               std::to_string(m.request_hit_rate()),
               std::to_string(m.byte_hit_rate()),
               std::to_string(m.normalized_uplink()),
               std::to_string(m.latency_ms.median()),
               std::to_string(m.latency_ms.quantile(0.95))});
      }
      std::printf("\nwrote %s\n", csv_path.c_str());
    }
  } catch (const std::exception& e) {
    obs::set_tracer(nullptr);
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  obs::set_tracer(nullptr);
  return 0;
}
