#include "core/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <ios>
#include <vector>

#include "core/scenario.h"
#include "util/hash.h"

namespace starcdn::core {
namespace {

/// Shared fixture: a small-but-real scenario so each test stays fast.
class SimulatorTest : public ::testing::Test {
 protected:
  /// Built on first use and shared by every test.
  static const Scenario::Built& scenario() {
    static const Scenario::Built built = [] {
      Scenario recipe;
      recipe.workload.object_count = 20'000;
      recipe.workload.requests_per_weight = 10'000;
      recipe.workload.duration_s = 2 * util::kHour.value();
      return recipe.build();
    }();
    return built;
  }
  static const std::vector<trace::Request>& requests() {
    static const auto all =
        trace::collect(*scenario().model->generate_stream());
    return all;
  }

  static SimConfig small_config() {
    SimConfig cfg;
    cfg.cache_capacity = util::mib(256);
    cfg.buckets = 4;
    return cfg;
  }

  /// A simulator over the shared scenario replaying `variants`.
  static Simulator simulator(SimConfig cfg, std::vector<Variant> variants) {
    cfg.variants = std::move(variants);
    return Simulator(*scenario().shell, *scenario().schedule, std::move(cfg));
  }

  /// The shared trace split in two at its midpoint.
  static std::pair<std::vector<trace::Request>, std::vector<trace::Request>>
  halves() {
    const auto mid = requests().begin() +
                     static_cast<std::ptrdiff_t>(requests().size() / 2);
    return {{requests().begin(), mid}, {mid, requests().end()}};
  }

  /// Replay the shared trace into `sim` and return its report.
  static RunReport replay(Simulator& sim) {
    trace::VectorStream stream(requests());
    sim.run(stream);
    return sim.finish();
  }
};

TEST_F(SimulatorTest, ConservationInvariants) {
  Simulator sim =
      simulator(small_config(), {Variant::kStarCdn, Variant::kVanillaLru});
  const RunReport report = replay(sim);
  for (const auto v : {Variant::kStarCdn, Variant::kVanillaLru}) {
    const auto& m = report.variant(v).metrics;
    EXPECT_EQ(m.requests, requests().size());
    EXPECT_EQ(m.hits() + m.misses, m.requests);
    EXPECT_EQ(m.bytes_hit + m.uplink_bytes, m.bytes_requested);
    EXPECT_GT(m.hits(), 0u);
    EXPECT_GT(m.misses, 0u);
  }
}

TEST_F(SimulatorTest, UplinkEqualsOneMinusByteHitRate) {
  Simulator sim = simulator(small_config(), {Variant::kStarCdn});
  const RunReport report = replay(sim);
  const auto& m = report.variant(Variant::kStarCdn).metrics;
  EXPECT_NEAR(m.normalized_uplink(), 1.0 - m.byte_hit_rate(), 1e-12);
}

TEST_F(SimulatorTest, VariantOrderingHolds) {
  // The paper's headline ordering at any reasonable configuration:
  // StarCDN > hashing-only > vanilla LRU (Fig. 7).
  Simulator sim =
      simulator(small_config(), {Variant::kStarCdn, Variant::kHashOnly,
                                 Variant::kRelayOnly, Variant::kVanillaLru});
  const RunReport report = replay(sim);
  const auto rate = [&](Variant v) {
    return report.variant(v).metrics.request_hit_rate();
  };
  const double full = rate(Variant::kStarCdn);
  const double hash = rate(Variant::kHashOnly);
  const double relay = rate(Variant::kRelayOnly);
  const double lru = rate(Variant::kVanillaLru);
  EXPECT_GT(full, hash);
  EXPECT_GT(hash, lru);
  EXPECT_GT(relay, lru);
  EXPECT_GT(full, relay);
}

TEST_F(SimulatorTest, RelayedFetchOnlyInRelayVariants) {
  Simulator sim =
      simulator(small_config(), {Variant::kStarCdn, Variant::kHashOnly});
  const RunReport report = replay(sim);
  const auto& star = report.variant(Variant::kStarCdn).metrics;
  const auto& hash = report.variant(Variant::kHashOnly).metrics;
  EXPECT_GT(star.relay_west_hits + star.relay_east_hits, 0u);
  EXPECT_EQ(hash.relay_west_hits, 0u);
  EXPECT_EQ(hash.relay_east_hits, 0u);
}

TEST_F(SimulatorTest, WestNeighbourDominatesRelays) {
  // §3.3/Fig. 3: the west inter-orbit neighbour traces the requester's
  // recent ground track, so most relayed hits come from the west.
  Simulator sim = simulator(small_config(), {Variant::kStarCdn});
  const RunReport report = replay(sim);
  const auto& m = report.variant(Variant::kStarCdn).metrics;
  EXPECT_GT(m.relay_west_hits, m.relay_east_hits);
}

TEST_F(SimulatorTest, RelayAvailabilityTracked) {
  Simulator sim = simulator(small_config(), {Variant::kStarCdn});
  const RunReport report = replay(sim);
  const auto& m = report.variant(Variant::kStarCdn).metrics;
  // Table 3's pattern: west-only dominates east-only and both.
  EXPECT_GT(m.relay_west_only_requests, m.relay_east_only_requests);
  EXPECT_GT(m.relay_west_only_requests, m.relay_both_requests);
  EXPECT_GT(m.relay_west_only_bytes, 0u);
}

TEST_F(SimulatorTest, DisablingEastRelayRemovesEastHits) {
  auto cfg = small_config();
  cfg.relay_east = false;
  Simulator sim = simulator(cfg, {Variant::kStarCdn});
  const RunReport report = replay(sim);
  const auto& m = report.variant(Variant::kStarCdn).metrics;
  EXPECT_EQ(m.relay_east_hits, 0u);
  EXPECT_GT(m.relay_west_hits, 0u);
}

TEST_F(SimulatorTest, LatencySamplesCollected) {
  Simulator sim = simulator(small_config(), {Variant::kStarCdn});
  const RunReport report = replay(sim);
  const auto& lat = report.variant(Variant::kStarCdn).metrics.latency_ms;
  EXPECT_EQ(lat.count(), requests().size());
  // Hits cost a couple of GSL+ISL traversals; misses tens of ms.
  EXPECT_GT(lat.median(), 3.0);
  EXPECT_LT(lat.median(), 80.0);
  EXPECT_GT(lat.quantile(0.99), lat.median());
}

TEST_F(SimulatorTest, LatencySamplingCanBeDisabled) {
  auto cfg = small_config();
  cfg.sample_latency = false;
  Simulator sim = simulator(cfg, {Variant::kVanillaLru});
  EXPECT_TRUE(
      replay(sim).variant(Variant::kVanillaLru).metrics.latency_ms.empty());
}

TEST_F(SimulatorTest, BiggerCacheNeverHurts) {
  auto small_cfg = small_config();
  small_cfg.cache_capacity = util::mib(64);
  Simulator small_sim = simulator(small_cfg, {Variant::kVanillaLru});
  const RunReport small = replay(small_sim);

  auto big_cfg = small_config();
  big_cfg.cache_capacity = util::gib(4);
  Simulator big_sim = simulator(big_cfg, {Variant::kVanillaLru});
  const RunReport big = replay(big_sim);

  EXPECT_GE(big.variant(Variant::kVanillaLru).metrics.request_hit_rate() +
                0.001,
            small.variant(Variant::kVanillaLru).metrics.request_hit_rate());
}

TEST_F(SimulatorTest, MoreBucketsImproveHashedHitRate) {
  // §5.2.1: L=9 beats L=4 in hit rate (bigger effective cache).
  auto cfg4 = small_config();
  cfg4.buckets = 4;
  Simulator s4 = simulator(cfg4, {Variant::kHashOnly});
  const RunReport r4 = replay(s4);

  auto cfg9 = small_config();
  cfg9.buckets = 9;
  Simulator s9 = simulator(cfg9, {Variant::kHashOnly});
  const RunReport r9 = replay(s9);

  EXPECT_GT(r9.variant(Variant::kHashOnly).metrics.request_hit_rate(),
            r4.variant(Variant::kHashOnly).metrics.request_hit_rate());
}

TEST_F(SimulatorTest, PerSatelliteTracking) {
  auto cfg = small_config();
  cfg.track_per_satellite = true;
  Simulator sim = simulator(cfg, {Variant::kStarCdn});
  const RunReport report = replay(sim);
  const auto& m = report.variant(Variant::kStarCdn).metrics;
  ASSERT_EQ(m.sat_requests.size(),
            static_cast<std::size_t>(scenario().shell->size()));
  std::uint64_t total = 0, hits = 0;
  for (std::size_t i = 0; i < m.sat_requests.size(); ++i) {
    total += m.sat_requests[i];
    hits += m.sat_hits[i];
    ASSERT_LE(m.sat_hits[i], m.sat_requests[i]);
  }
  // Relay hits are not attributed to the serving satellite's counters, so
  // the per-satellite totals cover requests that reached a cache.
  EXPECT_EQ(total, m.requests);
  EXPECT_EQ(hits, m.local_hits + m.routed_hits);
}

TEST_F(SimulatorTest, BucketsServedHealthyGridIsOnePerSatellite) {
  const auto served =
      BucketMapper(*scenario().shell, small_config().buckets)
          .buckets_served_per_satellite();
  for (int i = 0; i < scenario().shell->size(); ++i) {
    EXPECT_EQ(served[static_cast<std::size_t>(i)], 1);
  }
}

TEST_F(SimulatorTest, UnregisteredVariantThrows) {
  Simulator sim = simulator(small_config(), {Variant::kStarCdn});
  EXPECT_THROW((void)sim.finish().variant(Variant::kVanillaLru),
               std::out_of_range);
}

TEST_F(SimulatorTest, UnregisteredVariantErrorNamesIt) {
  Simulator sim = simulator(small_config(), {Variant::kStarCdn});
  const RunReport report = sim.finish();
  try {
    (void)report.variant(Variant::kPrefetch);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(),
                 "RunReport::variant: StarCDN-Prefetch not in report");
  }
}

TEST_F(SimulatorTest, DuplicateVariantRegistrationIsNoop) {
  Simulator sim =
      simulator(small_config(), {Variant::kStarCdn, Variant::kStarCdn});
  EXPECT_EQ(replay(sim).variant(Variant::kStarCdn).metrics.requests,
            requests().size());
}

TEST_F(SimulatorTest, StreamedRunsAccumulate) {
  Simulator whole = simulator(small_config(), {Variant::kStarCdn});
  const RunReport whole_report = replay(whole);

  Simulator chunked = simulator(small_config(), {Variant::kStarCdn});
  const auto [first, second] = halves();
  trace::VectorStream first_stream(first), second_stream(second);
  chunked.run(first_stream);
  chunked.run(second_stream);
  const RunReport chunked_report = chunked.finish();

  const auto& a = whole_report.variant(Variant::kStarCdn).metrics;
  const auto& b = chunked_report.variant(Variant::kStarCdn).metrics;
  EXPECT_EQ(a.hits(), b.hits());
  EXPECT_EQ(a.uplink_bytes, b.uplink_bytes);
}

TEST_F(SimulatorTest, FinishIsASnapshot) {
  // A finish() between two run() calls must leave the simulator as it was:
  // the final report equals that of a run that never called it, down to
  // the series rows recorded after it and the latency reservoir.
  const auto [first, second] = halves();
  const auto run_halves = [&](bool finish_between) {
    Simulator sim = simulator(small_config(),
                              {Variant::kStarCdn, Variant::kVanillaLru});
    trace::VectorStream first_stream(first), second_stream(second);
    sim.run(first_stream);
    if (finish_between) {
      const RunReport mid = sim.finish();
      EXPECT_EQ(mid.variant(Variant::kStarCdn).metrics.requests, first.size());
    }
    sim.run(second_stream);
    return sim.finish();
  };
  const RunReport peeked = run_halves(true);
  const RunReport plain = run_halves(false);

  EXPECT_EQ(peeked.totals, plain.totals);
  for (const auto v : {Variant::kStarCdn, Variant::kVanillaLru}) {
    const VariantReport& a = peeked.variant(v);
    const VariantReport& b = plain.variant(v);
    EXPECT_EQ(a.counters, b.counters) << a.name;
    EXPECT_EQ(a.series.epochs, b.series.epochs) << a.name;
    EXPECT_EQ(a.series.values, b.series.values) << a.name;
    EXPECT_EQ(a.metrics.latency_ms.count(), b.metrics.latency_ms.count());
    EXPECT_EQ(a.metrics.latency_ms.samples(), b.metrics.latency_ms.samples())
        << a.name;
  }
}

// --- Golden regression -------------------------------------------------------
//
// End-to-end metrics captured from the pre-rewrite (node-based) cache
// implementations on a fixed scenario: every policy x variant combination
// must stay bitwise-identical after the arena-backed cache-core rewrite.
// Any intentional behaviour change to a policy must re-capture these rows,
// and so must a change to the workload generator's sample path.

struct GoldenRow {
  cache::Policy policy;
  Variant variant;
  std::uint64_t local_hits, routed_hits, relay_west_hits, relay_east_hits;
  std::uint64_t misses, unreachable;
  std::uint64_t bytes_hit, uplink_bytes, isl_bytes, prefetch_bytes;
  std::uint64_t relay_both_requests;
};

TEST(SimulatorGolden, MetricsBitwiseIdenticalAcrossCacheRewrite) {
  using cache::Policy;
  static constexpr GoldenRow kGolden[] = {
    {Policy::kLru, Variant(0), 7753u, 0u, 0u, 0u, 14647u, 0u, 94679748070u, 279597395723u, 0u, 0u, 0u},
    {Policy::kLru, Variant(1), 7521u, 0u, 0u, 0u, 14879u, 0u, 92146341746u, 282130802047u, 0u, 0u, 0u},
    {Policy::kLru, Variant(2), 2635u, 8326u, 0u, 0u, 11439u, 0u, 153140494914u, 221136648879u, 116019450103u, 0u, 0u},
    {Policy::kLru, Variant(3), 7574u, 0u, 1959u, 769u, 12098u, 0u, 139012576884u, 235264566909u, 45980405104u, 0u, 711u},
    {Policy::kLru, Variant(4), 2640u, 8361u, 1551u, 777u, 9071u, 0u, 193731660638u, 180545483155u, 156566663960u, 0u, 391u},
    {Policy::kLru, Variant(5), 2628u, 7895u, 0u, 0u, 11877u, 0u, 142425109923u, 231852033870u, 385089806652u, 278480982503u, 0u},
    {Policy::kLfu, Variant(0), 8626u, 0u, 0u, 0u, 13774u, 0u, 105430440271u, 268846703522u, 0u, 0u, 0u},
    {Policy::kLfu, Variant(1), 8113u, 0u, 0u, 0u, 14287u, 0u, 100091890964u, 274185252829u, 0u, 0u, 0u},
    {Policy::kLfu, Variant(2), 2681u, 8679u, 0u, 0u, 11040u, 0u, 157895236692u, 216381907101u, 120066831847u, 0u, 0u},
    {Policy::kLfu, Variant(3), 8169u, 0u, 1687u, 617u, 11927u, 0u, 141355143160u, 232922000633u, 40604936776u, 0u, 511u},
    {Policy::kLfu, Variant(4), 2682u, 8769u, 1433u, 678u, 8838u, 0u, 195450880774u, 178826263019u, 157590385983u, 0u, 337u},
    {Policy::kLfu, Variant(5), 2856u, 8791u, 0u, 0u, 10753u, 0u, 155294029432u, 218983114361u, 373327833615u, 256705091286u, 0u},
    {Policy::kFifo, Variant(0), 7130u, 0u, 0u, 0u, 15270u, 0u, 87318128502u, 286959015291u, 0u, 0u, 0u},
    {Policy::kFifo, Variant(1), 6933u, 0u, 0u, 0u, 15467u, 0u, 85478020760u, 288799123033u, 0u, 0u, 0u},
    {Policy::kFifo, Variant(2), 2548u, 7977u, 0u, 0u, 11875u, 0u, 146105583233u, 228171560560u, 110503531444u, 0u, 0u},
    {Policy::kFifo, Variant(3), 6933u, 0u, 2339u, 944u, 12184u, 0u, 137237235128u, 237039908665u, 51759214368u, 0u, 922u},
    {Policy::kFifo, Variant(4), 2548u, 7977u, 1829u, 888u, 9158u, 0u, 192028977297u, 182248166496u, 156426925508u, 0u, 608u},
    {Policy::kFifo, Variant(5), 2486u, 7517u, 0u, 0u, 12397u, 0u, 135937016711u, 238340127082u, 394924351006u, 292944702462u, 0u},
    {Policy::kSieve, Variant(0), 8236u, 0u, 0u, 0u, 14164u, 0u, 101351095816u, 272926047977u, 0u, 0u, 0u},
    {Policy::kSieve, Variant(1), 7887u, 0u, 0u, 0u, 14513u, 0u, 97509132921u, 276768010872u, 0u, 0u, 0u},
    {Policy::kSieve, Variant(2), 2653u, 8503u, 0u, 0u, 11244u, 0u, 156106031057u, 218171112736u, 118631933712u, 0u, 0u},
    {Policy::kSieve, Variant(3), 7876u, 0u, 1860u, 695u, 11969u, 0u, 141355274212u, 232921869581u, 43880318381u, 0u, 644u},
    {Policy::kSieve, Variant(4), 2658u, 8521u, 1511u, 708u, 9002u, 0u, 194699837511u, 179577306282u, 157133714049u, 0u, 385u},
    {Policy::kSieve, Variant(5), 2810u, 8574u, 0u, 0u, 11016u, 0u, 154132694402u, 220144449391u, 379345826782u, 263565416112u, 0u},
    {Policy::kSlru, Variant(0), 8485u, 0u, 0u, 0u, 13915u, 0u, 104670692882u, 269606450911u, 0u, 0u, 0u},
    {Policy::kSlru, Variant(1), 8093u, 0u, 0u, 0u, 14307u, 0u, 99872393511u, 274404750282u, 0u, 0u, 0u},
    {Policy::kSlru, Variant(2), 2677u, 8631u, 0u, 0u, 11092u, 0u, 156899728728u, 217377415065u, 119261358781u, 0u, 0u},
    {Policy::kSlru, Variant(3), 8106u, 0u, 1747u, 633u, 11914u, 0u, 141182801873u, 233094341920u, 41072568147u, 0u, 569u},
    {Policy::kSlru, Variant(4), 2674u, 8690u, 1465u, 694u, 8877u, 0u, 195253314598u, 179023829195u, 157606210394u, 0u, 351u},
    {Policy::kSlru, Variant(5), 2867u, 8749u, 0u, 0u, 10784u, 0u, 155592203346u, 218684940447u, 375121449624u, 258506617804u, 0u},
    {Policy::kGdsf, Variant(0), 8618u, 0u, 0u, 0u, 13782u, 0u, 96939042407u, 277338101386u, 0u, 0u, 0u},
    {Policy::kGdsf, Variant(1), 8109u, 0u, 0u, 0u, 14291u, 0u, 93617669152u, 280659474641u, 0u, 0u, 0u},
    {Policy::kGdsf, Variant(2), 2718u, 8842u, 0u, 0u, 10840u, 0u, 151438504079u, 222838639714u, 114907427943u, 0u, 0u},
    {Policy::kGdsf, Variant(3), 8168u, 0u, 1816u, 713u, 11703u, 0u, 135599960279u, 238677183514u, 40923453013u, 0u, 555u},
    {Policy::kGdsf, Variant(4), 2721u, 8896u, 1463u, 685u, 8635u, 0u, 189064338169u, 185212805624u, 152559195264u, 0u, 356u},
    {Policy::kGdsf, Variant(5), 2833u, 8699u, 0u, 0u, 10868u, 0u, 141925790838u, 232351352955u, 351818750658u, 245042495663u, 0u},
  };

  Scenario recipe;
  recipe.workload.object_count = 5'000;
  recipe.workload.requests_per_weight = 2'000;
  recipe.workload.duration_s = 1'800.0;
  const Scenario::Built s = recipe.build();
  const auto requests = trace::collect(*s.model->generate_stream());
  const std::vector<Variant> kVariants = {
      Variant::kStatic,   Variant::kVanillaLru, Variant::kHashOnly,
      Variant::kRelayOnly, Variant::kStarCdn,   Variant::kPrefetch,
  };

  std::size_t row = 0;
  for (const auto policy :
       {Policy::kLru, Policy::kLfu, Policy::kFifo, Policy::kSieve,
        Policy::kSlru, Policy::kGdsf}) {
    SimConfig cfg;
    cfg.policy = policy;
    cfg.cache_capacity = util::mib(64);
    cfg.buckets = 4;
    cfg.variants = kVariants;
    Simulator sim(*s.shell, *s.schedule, cfg);
    trace::VectorStream stream(requests);
    sim.run(stream);
    const RunReport report = sim.finish();
    for (const auto v : kVariants) {
      const GoldenRow& g = kGolden[row++];
      ASSERT_EQ(g.policy, policy);
      ASSERT_EQ(g.variant, v);
      const auto& m = report.variant(v).metrics;
      const auto label = std::string(cache::to_string(policy)) + "/variant " +
                         std::to_string(static_cast<int>(v));
      EXPECT_EQ(m.local_hits, g.local_hits) << label;
      EXPECT_EQ(m.routed_hits, g.routed_hits) << label;
      EXPECT_EQ(m.relay_west_hits, g.relay_west_hits) << label;
      EXPECT_EQ(m.relay_east_hits, g.relay_east_hits) << label;
      EXPECT_EQ(m.misses, g.misses) << label;
      EXPECT_EQ(m.unreachable, g.unreachable) << label;
      EXPECT_EQ(m.bytes_hit, g.bytes_hit) << label;
      EXPECT_EQ(m.uplink_bytes, g.uplink_bytes) << label;
      EXPECT_EQ(m.isl_bytes, g.isl_bytes) << label;
      EXPECT_EQ(m.prefetch_bytes, g.prefetch_bytes) << label;
      EXPECT_EQ(m.relay_both_requests, g.relay_both_requests) << label;
    }
  }
  EXPECT_EQ(row, std::size(kGolden));
}

// --- Pinned latency samples --------------------------------------------------
//
// Past kDefaultLatencyReservoir requests a variant's reservoir drops most
// latency samples. The fold computes only the samples it keeps, but must
// keep the same ones with the same values and take every sampled leg's
// draw either way. These values were captured from a replay that computed
// every sample; a change to which samples are kept, to their values or to
// the latency stream shows here.

struct PinnedLatency {
  Variant variant;
  std::size_t count;
  double p50, p99;
  std::uint64_t samples_hash;  // over the sorted reservoir's bit patterns
};

TEST(SimulatorLatency, ReservoirSamplesPinned) {
  static constexpr PinnedLatency kPinned[] = {
      {Variant::kStarCdn, 336'000u, 0x1.9a5e02dc28f5cp+4,
       0x1.8368bb601e6fcp+6, 0x75bbcb3e869bf423ULL},
      {Variant::kPrefetch, 336'000u, 0x1.a910dc582c401p+4,
       0x1.93c16d3ebde03p+6, 0xcb5b5bdec929a43dULL},
  };

  Scenario recipe;
  recipe.workload.object_count = 20'000;
  recipe.workload.requests_per_weight = 30'000;
  recipe.workload.duration_s = util::kHour.value();
  recipe.fail_fraction = 0.097;
  recipe.failure_seed = 7;
  // A sparse 24 x 12 shell leaves coverage gaps: unreachable requests.
  recipe.shell.planes = 24;
  recipe.shell.slots_per_plane = 12;
  const Scenario::Built s = recipe.build();
  SimConfig cfg;
  cfg.cache_capacity = util::mib(256);
  cfg.buckets = 9;
  cfg.transient_down_prob = 0.05;
  cfg.transient_window = util::Seconds{120.0};
  cfg.variants = {Variant::kStarCdn, Variant::kPrefetch};
  Simulator sim(*s.shell, *s.schedule, cfg);
  sim.run(*s.model->generate_stream());
  const RunReport report = sim.finish();

  for (const PinnedLatency& pin : kPinned) {
    const VariantMetrics& m = report.variant(pin.variant).metrics;
    SCOPED_TRACE(to_string(pin.variant));
    ASSERT_GT(m.requests, 300'000u);
    EXPECT_GT(m.transient_misses, 0u);
    EXPECT_GT(m.unreachable, 0u);
    std::vector<double> sorted = m.latency_ms.samples();
    std::sort(sorted.begin(), sorted.end());
    std::uint64_t hash = 0;
    for (const double x : sorted) {
      hash = util::hash_combine(hash, std::bit_cast<std::uint64_t>(x));
    }
    EXPECT_EQ(m.latency_ms.count(), pin.count);
    EXPECT_EQ(m.latency_ms.quantile(0.5), pin.p50)
        << std::hexfloat << m.latency_ms.quantile(0.5);
    EXPECT_EQ(m.latency_ms.quantile(0.99), pin.p99)
        << std::hexfloat << m.latency_ms.quantile(0.99);
    EXPECT_EQ(hash, pin.samples_hash) << std::hex << hash;
  }
}

TEST(SimulatorFailures, KnockedOutConstellationStillServes) {
  Scenario recipe;
  recipe.workload.object_count = 10'000;
  recipe.workload.requests_per_weight = 4'000;
  recipe.workload.duration_s = util::kHour.value();
  recipe.fail_fraction = 0.097;  // the paper's out-of-slot rate
  recipe.failure_seed = 7;
  const Scenario::Built s = recipe.build();
  const orbit::Constellation& shell = *s.shell;

  SimConfig cfg;
  cfg.cache_capacity = util::mib(256);
  cfg.buckets = 9;
  cfg.track_per_satellite = true;
  cfg.variants = {Variant::kStarCdn};
  Simulator sim(shell, *s.schedule, cfg);
  sim.run(*s.model->generate_stream());

  const RunReport report = sim.finish();
  const auto& m = report.variant(Variant::kStarCdn).metrics;
  EXPECT_EQ(m.requests, s.model->total_request_count());
  EXPECT_GT(m.request_hit_rate(), 0.2);

  // Fig. 11 structure: some satellites inherit extra bucket slots.
  const auto served =
      BucketMapper(shell, cfg.buckets).buckets_served_per_satellite();
  int multi = 0;
  for (int i = 0; i < shell.size(); ++i) {
    if (!shell.active(util::SatId{i})) {
      EXPECT_EQ(served[static_cast<std::size_t>(i)], 0);
    } else if (served[static_cast<std::size_t>(i)] > 1) {
      ++multi;
    }
  }
  EXPECT_GT(multi, 0);
}

// The uplink meter divides each (satellite, epoch) cell by the schedule's
// epoch length, not a fixed 15 s.
TEST(Simulator, UplinkMeterUsesScheduleEpoch) {
  const orbit::Constellation shell{orbit::WalkerParams{}};
  sched::SchedulerParams params;
  params.epoch = util::Seconds{60.0};
  const sched::LinkSchedule schedule(shell, util::paper_cities(),
                                     util::Seconds{120.0}, params);
  SimConfig cfg;
  cfg.sample_latency = false;
  cfg.variants = {Variant::kVanillaLru};
  Simulator sim(shell, schedule, cfg);
  const util::Bytes size = util::mib(300);
  const std::vector<trace::Request> one{{1.0, 42, size, 0}};
  trace::VectorStream stream(one);
  sim.run(stream);

  const RunReport report = sim.finish();
  const auto& m = report.variant(Variant::kVanillaLru).metrics;
  ASSERT_EQ(m.unreachable, 0u);
  ASSERT_EQ(m.uplink_meter.throughput_gbps().count(), 1u);
  EXPECT_DOUBLE_EQ(m.uplink_meter.throughput_gbps().mean(),
                   static_cast<double>(size) * 8.0 / 1e9 / 60.0);
}

}  // namespace
}  // namespace starcdn::core
