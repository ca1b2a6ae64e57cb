// The parallel engine's contract: simulation results are a function of the
// configuration and seed only — never of the thread count. These tests run
// the same scenario with STARCDN_THREADS-equivalent overrides of 1 and 8
// and require bitwise-identical outputs.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/coupling.h"
#include "core/scenario.h"
#include "core/simulator.h"
#include "trace/stream.h"
#include "util/parallel.h"

namespace starcdn {
namespace {

struct ThreadOverrideGuard {
  explicit ThreadOverrideGuard(int n) { util::set_parallel_threads(n); }
  ~ThreadOverrideGuard() { util::set_parallel_threads(0); }
};

TEST(Determinism, LinkScheduleIdenticalAcrossThreadCounts) {
  const orbit::Constellation shell{orbit::WalkerParams{}};
  const double horizon_s = 30 * util::kMinute.value();

  auto build = [&](int threads) {
    ThreadOverrideGuard guard(threads);
    return sched::LinkSchedule(shell, util::paper_cities(), util::Seconds{horizon_s});
  };
  const sched::LinkSchedule serial = build(1);
  const sched::LinkSchedule parallel = build(8);

  ASSERT_EQ(serial.epochs(), parallel.epochs());
  for (std::size_t e = 0; e < serial.epochs(); ++e) {
    for (std::size_t c = 0; c < util::paper_cities().size(); ++c) {
      const auto& a =
          serial.candidates(util::EpochIdx{e},
                            util::CityId{static_cast<std::uint32_t>(c)});
      const auto& b =
          parallel.candidates(util::EpochIdx{e},
                              util::CityId{static_cast<std::uint32_t>(c)});
      ASSERT_EQ(a.size(), b.size()) << "epoch " << e << " city " << c;
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].sat, b[i].sat)
            << "epoch " << e << " city " << c << " rank " << i;
        // Bitwise, not approximate: identical code on identical inputs.
        ASSERT_EQ(a[i].gsl_one_way_ms, b[i].gsl_one_way_ms)
            << "epoch " << e << " city " << c << " rank " << i;
      }
    }
  }
  EXPECT_DOUBLE_EQ(serial.mean_candidates(), parallel.mean_candidates());
}

void expect_identical(const core::VariantMetrics& a,
                      const core::VariantMetrics& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.local_hits, b.local_hits);
  EXPECT_EQ(a.routed_hits, b.routed_hits);
  EXPECT_EQ(a.relay_west_hits, b.relay_west_hits);
  EXPECT_EQ(a.relay_east_hits, b.relay_east_hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.unreachable, b.unreachable);
  EXPECT_EQ(a.transient_misses, b.transient_misses);
  EXPECT_EQ(a.bytes_requested, b.bytes_requested);
  EXPECT_EQ(a.bytes_hit, b.bytes_hit);
  EXPECT_EQ(a.uplink_bytes, b.uplink_bytes);
  EXPECT_EQ(a.isl_bytes, b.isl_bytes);
  EXPECT_EQ(a.prefetch_bytes, b.prefetch_bytes);
  EXPECT_EQ(a.relay_west_only_requests, b.relay_west_only_requests);
  EXPECT_EQ(a.relay_east_only_requests, b.relay_east_only_requests);
  EXPECT_EQ(a.relay_both_requests, b.relay_both_requests);
  ASSERT_EQ(a.latency_ms.count(), b.latency_ms.count());
  // Latency samples come from each variant's private RNG stream; they must
  // not shift when other variants run on other threads.
  EXPECT_EQ(a.latency_ms.median(), b.latency_ms.median());
  EXPECT_EQ(a.latency_ms.quantile(0.99), b.latency_ms.quantile(0.99));
  ASSERT_EQ(a.sat_requests.size(), b.sat_requests.size());
  for (std::size_t i = 0; i < a.sat_requests.size(); ++i) {
    ASSERT_EQ(a.sat_requests[i], b.sat_requests[i]) << "satellite " << i;
    ASSERT_EQ(a.sat_hits[i], b.sat_hits[i]) << "satellite " << i;
  }
}

TEST(Determinism, SimulatorIdenticalAcrossThreadCounts) {
  core::Scenario recipe;
  recipe.workload.object_count = 10'000;
  recipe.workload.requests_per_weight = 4'000;
  recipe.workload.duration_s = util::kHour.value();
  const core::Scenario::Built s = recipe.build();
  const auto requests = trace::collect(*s.model->generate_stream());

  const std::vector<core::Variant> variants = {
      core::Variant::kStatic, core::Variant::kStarCdn,
      core::Variant::kHashOnly, core::Variant::kRelayOnly,
      core::Variant::kVanillaLru, core::Variant::kPrefetch};

  auto simulate = [&](int threads) {
    ThreadOverrideGuard guard(threads);
    core::SimConfig cfg;
    cfg.cache_capacity = util::mib(256);
    cfg.buckets = 4;
    cfg.track_per_satellite = true;
    cfg.transient_down_prob = 0.02;  // exercise the per-variant outage model
    cfg.variants = variants;
    core::Simulator sim(*s.shell, *s.schedule, cfg);
    trace::VectorStream stream(requests);
    sim.run(stream);
    return sim.finish();
  };

  const core::RunReport serial = simulate(1);
  const core::RunReport parallel = simulate(8);
  for (const auto v : variants) {
    SCOPED_TRACE(core::to_string(v));
    expect_identical(serial.variant(v).metrics, parallel.variant(v).metrics);
  }
}

TEST(Determinism, VariantIndependentOfCoRegisteredVariants) {
  // Each variant owns its RNG stream (seeded per variant) and a request
  // counter that advances in lockstep across variants, so a variant
  // replayed alone must match its own report from a run that registers
  // every variant, at any thread count.
  core::Scenario recipe;
  recipe.workload.object_count = 5'000;
  recipe.workload.requests_per_weight = 2'000;
  recipe.workload.duration_s = util::kHour.value();
  const core::Scenario::Built s = recipe.build();
  const auto requests = trace::collect(*s.model->generate_stream());

  const std::vector<core::Variant> variants = {
      core::Variant::kStatic, core::Variant::kVanillaLru,
      core::Variant::kHashOnly, core::Variant::kRelayOnly,
      core::Variant::kStarCdn, core::Variant::kPrefetch};
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadOverrideGuard guard(threads);
    const auto simulate = [&](std::vector<core::Variant> registered) {
      core::SimConfig cfg;
      cfg.cache_capacity = util::mib(256);
      cfg.buckets = 4;
      cfg.track_per_satellite = true;
      cfg.transient_down_prob = 0.02;
      cfg.variants = std::move(registered);
      core::Simulator sim(*s.shell, *s.schedule, cfg);
      trace::VectorStream stream(requests, 3'000);
      sim.run(stream);
      return sim.finish();
    };
    const core::RunReport together = simulate(variants);
    for (const auto v : variants) {
      SCOPED_TRACE(core::to_string(v));
      const core::RunReport alone = simulate({v});
      const core::VariantReport& a = alone.variant(v);
      const core::VariantReport& b = together.variant(v);
      expect_identical(a.metrics, b.metrics);
      EXPECT_EQ(a.counters, b.counters);
      EXPECT_EQ(a.metrics.latency_ms.samples(), b.metrics.latency_ms.samples());
    }
  }
}

TEST(Determinism, StreamedChunksMatchWholeRunInParallel) {
  // Streaming a trace in chunks under the parallel engine must agree with
  // one whole-trace run: per-variant request counters keep the user
  // rotation aligned across run() calls.
  ThreadOverrideGuard guard(8);
  core::Scenario recipe;
  recipe.workload.object_count = 5'000;
  recipe.workload.requests_per_weight = 2'000;
  recipe.workload.duration_s = util::kHour.value();
  const core::Scenario::Built s = recipe.build();
  const auto requests = trace::collect(*s.model->generate_stream());

  core::SimConfig cfg;
  cfg.cache_capacity = util::mib(128);
  cfg.variants = {core::Variant::kStarCdn};
  core::Simulator whole(*s.shell, *s.schedule, cfg);
  trace::VectorStream whole_stream(requests);
  whole.run(whole_stream);

  core::Simulator chunked(*s.shell, *s.schedule, cfg);
  const std::size_t third = requests.size() / 3;
  for (const auto& [begin, end] :
       {std::pair{std::size_t{0}, third}, std::pair{third, 2 * third},
        std::pair{2 * third, requests.size()}}) {
    const std::vector<trace::Request> piece(
        requests.begin() + static_cast<std::ptrdiff_t>(begin),
        requests.begin() + static_cast<std::ptrdiff_t>(end));
    trace::VectorStream stream(piece);
    chunked.run(stream);
  }

  const core::RunReport whole_report = whole.finish();
  const core::RunReport chunked_report = chunked.finish();
  const auto& a = whole_report.variant(core::Variant::kStarCdn).metrics;
  const auto& b = chunked_report.variant(core::Variant::kStarCdn).metrics;
  EXPECT_EQ(a.hits(), b.hits());
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.uplink_bytes, b.uplink_bytes);
  EXPECT_EQ(a.isl_bytes, b.isl_bytes);
}

/// Every output of a run that sharding could perturb: counters, epoch
/// series rows, the latency reservoir (in sample order), the uplink meter
/// and the per-satellite counters.
void expect_bitwise_equal(const core::RunReport& a, const core::RunReport& b) {
  ASSERT_EQ(a.variants.size(), b.variants.size());
  for (std::size_t v = 0; v < a.variants.size(); ++v) {
    const core::VariantReport& x = a.variants[v];
    const core::VariantReport& y = b.variants[v];
    SCOPED_TRACE(x.name);
    EXPECT_EQ(x.counters, y.counters);
    EXPECT_EQ(x.series.columns, y.series.columns);
    EXPECT_EQ(x.series.epochs, y.series.epochs);
    EXPECT_EQ(x.series.values, y.series.values);
    EXPECT_GT(x.metrics.latency_ms.count(), 0u);
    EXPECT_EQ(x.metrics.latency_ms.count(), y.metrics.latency_ms.count());
    EXPECT_EQ(x.metrics.latency_ms.samples(), y.metrics.latency_ms.samples());
    const util::RunningStats& ux = x.metrics.uplink_meter.throughput_gbps();
    const util::RunningStats& uy = y.metrics.uplink_meter.throughput_gbps();
    EXPECT_EQ(ux.count(), uy.count());
    EXPECT_EQ(ux.mean(), uy.mean());
    EXPECT_EQ(ux.max(), uy.max());
    EXPECT_EQ(x.metrics.sat_requests, y.metrics.sat_requests);
    EXPECT_EQ(x.metrics.sat_hits, y.metrics.sat_hits);
    EXPECT_EQ(x.metrics.sat_bytes_requested, y.metrics.sat_bytes_requested);
    EXPECT_EQ(x.metrics.sat_bytes_hit, y.metrics.sat_bytes_hit);
  }
}

TEST(Determinism, ShardedReplayIdenticalAtEveryThreadCount) {
  // Sharded replay splits each variant's cache decisions over bins of
  // coupling groups whose number follows the thread count, and pipelines
  // blocks through produce / decide / fold. Neither may show in any
  // output: every scenario below must match its 1-thread run bitwise.
  // Some scenario must have requests with no satellite in view, which
  // the partition sends to bin 0.
  core::Scenario recipe;
  recipe.workload.object_count = 4'000;
  recipe.workload.requests_per_weight = 1'500;
  recipe.workload.duration_s = util::kHour.value();
  const core::Scenario::Built healthy = recipe.build();
  recipe.fail_fraction = 0.1;
  recipe.failure_seed = 97;
  const core::Scenario::Built failed = recipe.build();
  const auto requests = trace::collect(*healthy.model->generate_stream());
  ASSERT_GT(requests.size(), 10'000u);

  std::uint64_t unreachable = 0;
  const auto check = [&](const core::Scenario::Built& s,
                         cache::Policy policy, int buckets, bool flaky) {
    const auto simulate = [&](int threads) {
      ThreadOverrideGuard guard(threads);
      auto cfg = core::SimConfig::Builder{}
                     .policy(policy)
                     .cache_capacity(util::mib(256))
                     .buckets(buckets)
                     .track_per_satellite(true)
                     .variants({core::Variant::kStatic,
                                core::Variant::kVanillaLru,
                                core::Variant::kHashOnly,
                                core::Variant::kRelayOnly,
                                core::Variant::kStarCdn,
                                core::Variant::kPrefetch})
                     .build();
      if (flaky) {
        cfg.transient_down_prob = 0.05;
        cfg.transient_window = util::Seconds{120.0};
      }
      core::Simulator sim(*s.shell, *s.schedule, cfg);
      trace::VectorStream stream(requests, 1'500);  // many pipeline steps
      sim.run(stream);
      return sim.finish();
    };
    const core::RunReport serial = simulate(1);
    for (const auto& [name, value] : serial.totals) {
      if (name == "unreachable") unreachable += value;
    }
    for (const int threads : {2, 3, 4, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      expect_bitwise_equal(serial, simulate(threads));
    }
  };

  for (const bool with_failures : {false, true}) {
    const core::Scenario::Built& s = with_failures ? failed : healthy;
    for (const cache::Policy policy :
         {cache::Policy::kLru, cache::Policy::kGdsf}) {
      for (const int buckets : {4, 9}) {
        SCOPED_TRACE(std::string(with_failures ? "failed" : "healthy") +
                     " policy=" + std::to_string(static_cast<int>(policy)) +
                     " L=" + std::to_string(buckets));
        check(s, policy, buckets, with_failures);
      }
    }
  }

  // A 6 x 3 shell at L = 4, whose relaying variants couple into fewer
  // groups than 8 threads: there the bin count is the group count, so
  // group g replays alone in bin g.
  SCOPED_TRACE("6x3 shell L=4");
  recipe.shell.planes = 6;
  recipe.shell.slots_per_plane = 3;
  recipe.fail_fraction = 0.0;
  const core::Scenario::Built tiny = recipe.build();
  const core::BucketMapper mapper(*tiny.shell, 4);
  for (const core::Variant v :
       {core::Variant::kRelayOnly, core::Variant::kStarCdn,
        core::Variant::kPrefetch}) {
    const auto groups = core::coupling_groups(core::reach_table(
        *tiny.shell, mapper, core::variant_spec(v), /*relay_east=*/true));
    EXPECT_GT(groups.count, 1u) << core::to_string(v);
    EXPECT_LT(groups.count, 8u) << core::to_string(v);
  }
  check(tiny, cache::Policy::kLru, 4, /*flaky=*/true);
  EXPECT_GT(unreachable, 0u);
}

TEST(Determinism, KnockOutClampTerminates) {
  // Satellite-task regression: over-asking must clamp, not spin forever.
  orbit::Constellation shell{orbit::WalkerParams{}};
  util::Rng rng(3);
  shell.knock_out_random(0.9, rng);
  shell.knock_out_random(0.9, rng);  // second call exceeds remaining actives
  EXPECT_EQ(shell.active_count(), 0);

  orbit::Constellation small{orbit::WalkerParams{}};
  util::Rng rng2(4);
  small.knock_out_random(2.0, rng2);  // fraction > 1 clamps to everything
  EXPECT_EQ(small.active_count(), 0);
}

}  // namespace
}  // namespace starcdn
