// Design-choice ablations the paper discusses in prose:
//   (a) §3.3 "Why not proactive prefetching?" — relayed fetch vs an
//       epoch-driven prefetch of the trailing replica's hot set.
//   (b) §3.3 bidirectional links — keeping vs dropping the east relay.
//   (c) §3.2 "accommodates any cache replacement scheme" — StarCDN over
//       LRU / LFU / FIFO / SIEVE / SLRU.
//   (d) §3.4 transient failures — hit-rate sensitivity to brief cache-server
//       outages.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace starcdn;
  bench::Harness harness(
      argc, argv, "Ablations — prefetch vs relay, east link, policies, outages",
      "Sections 3.2-3.4 (design discussion)");

  const auto run = [&](core::SimConfig cfg,
                       const std::vector<core::Variant>& variants,
                       const std::string& tag) {
    cfg.sample_latency = false;
    return harness.simulate(cfg, variants, "ablation_" + tag);
  };

  // (a) Relayed fetch vs proactive prefetch at the target configuration.
  {
    core::SimConfig cfg;
    cfg.cache_capacity = util::gib(2);
    cfg.buckets = 9;
    const auto report = run(cfg,
                            {core::Variant::kStarCdn, core::Variant::kPrefetch,
                             core::Variant::kHashOnly},
                            "prefetch");
    util::TextTable table({"Scheme", "Request HR", "Byte HR",
                           "ISL bytes (TB)", "Speculative bytes (TB)"});
    for (const auto v : {core::Variant::kStarCdn, core::Variant::kPrefetch,
                         core::Variant::kHashOnly}) {
      const auto& m = report.variant(v).metrics;
      table.add_row({core::to_string(v), util::fmt_pct(m.request_hit_rate()),
                     util::fmt_pct(m.byte_hit_rate()),
                     util::fmt(static_cast<double>(m.isl_bytes) / 1e12, 2),
                     util::fmt(static_cast<double>(m.prefetch_bytes) / 1e12, 2)});
    }
    table.print(std::cout, "(a) relayed fetch vs proactive prefetch");
    table.write_csv(harness.out_dir() + "/ablation_prefetch.csv");
    std::cout << "Paper claim (§3.3): prefetching is less efficient than\n"
                 "relayed fetch in hit rate and wastes ISL bandwidth and\n"
                 "cache space on content nobody requests.\n";
  }

  // (b) Bidirectional vs west-only relay.
  {
    util::TextTable table({"Relay links", "Request HR", "Byte HR"});
    for (const bool east : {true, false}) {
      core::SimConfig cfg;
      cfg.cache_capacity = util::gib(2);
      cfg.buckets = 9;
      cfg.relay_east = east;
      const auto report = run(cfg, {core::Variant::kStarCdn},
                              east ? "east_link" : "west_only");
      const auto& m = report.variant(core::Variant::kStarCdn).metrics;
      table.add_row({east ? "west + east" : "west only",
                     util::fmt_pct(m.request_hit_rate()),
                     util::fmt_pct(m.byte_hit_rate())});
    }
    table.print(std::cout, "(b) bidirectional east link");
    table.write_csv(harness.out_dir() + "/ablation_east_link.csv");
    std::cout << "Paper claim (§3.3): the east link helps less than the\n"
                 "west but costs no extra latency, so it is kept.\n";
  }

  // (c) Eviction-policy pluggability.
  {
    util::TextTable table({"Policy", "StarCDN RHR", "StarCDN BHR",
                           "LRU-baseline RHR"});
    for (const auto policy :
         {cache::Policy::kLru, cache::Policy::kLfu, cache::Policy::kFifo,
          cache::Policy::kSieve, cache::Policy::kSlru,
          cache::Policy::kGdsf}) {
      core::SimConfig cfg;
      cfg.cache_capacity = util::gib(2);
      cfg.buckets = 9;
      cfg.policy = policy;
      const auto report =
          run(cfg, {core::Variant::kStarCdn, core::Variant::kVanillaLru},
              std::string("policy_") + cache::to_string(policy));
      const auto& star = report.variant(core::Variant::kStarCdn).metrics;
      table.add_row(
          {cache::to_string(policy), util::fmt_pct(star.request_hit_rate()),
           util::fmt_pct(star.byte_hit_rate()),
           util::fmt_pct(report.variant(core::Variant::kVanillaLru)
                             .metrics.request_hit_rate())});
    }
    table.print(std::cout, "(c) StarCDN over different eviction policies");
    table.write_csv(harness.out_dir() + "/ablation_policies.csv");
    std::cout << "Paper claim (§3.2): the consistent hashing scheme\n"
                 "accommodates any replacement scheme; gains persist.\n";
  }

  // (d) Transient cache-server outages.
  {
    util::TextTable table({"Outage probability", "Request HR",
                           "Transient misses", "Uplink usage"});
    for (const double p : {0.0, 0.01, 0.05, 0.15}) {
      core::SimConfig cfg;
      cfg.cache_capacity = util::gib(2);
      cfg.buckets = 9;
      cfg.transient_down_prob = p;
      const auto report = run(cfg, {core::Variant::kStarCdn},
                              "outage_" + util::fmt(p, 2));
      const auto& m = report.variant(core::Variant::kStarCdn).metrics;
      table.add_row({util::fmt_pct(p, 0),
                     util::fmt_pct(m.request_hit_rate()),
                     std::to_string(m.transient_misses),
                     util::fmt_pct(m.normalized_uplink())});
    }
    table.print(std::cout, "(d) transient cache-server outages (§3.4)");
    table.write_csv(harness.out_dir() + "/ablation_transient.csv");
    std::cout << "Expectation: hit rate degrades roughly linearly in the\n"
                 "outage fraction — transient failures fall through to the\n"
                 "ground without destabilizing the bucket mapping.\n";
  }
  return 0;
}
