#include "net/latency_model.h"

#include <gtest/gtest.h>

#include "util/stats.h"

namespace starcdn::net {
namespace {

TEST(LatencyModel, HitCompositionArithmetic) {
  const LatencyModel m;
  EXPECT_DOUBLE_EQ(m.hit_local(util::Millis{3.0}).value(), 6.0);
  EXPECT_DOUBLE_EQ(m.hit_routed(util::Millis{3.0}, util::Millis{4.0}).value(), 14.0);
  EXPECT_DOUBLE_EQ(m.hit_relayed(util::Millis{3.0}, util::Millis{4.0}, util::Millis{2.0}).value(), 18.0);
}

TEST(LatencyModel, GridHopsUseTable1Delays) {
  const LatencyModel m;
  // Defaults are Table 1's means: 2.15 ms inter-orbit, 8.03 ms intra-orbit.
  EXPECT_NEAR(m.grid_hops_delay(1, 0).value(), 2.15, 1e-9);
  EXPECT_NEAR(m.grid_hops_delay(0, 1).value(), 8.03, 1e-9);
  EXPECT_NEAR(m.grid_hops_delay(2, 1).value(), 2 * 2.15 + 8.03, 1e-9);
}

TEST(LatencyModel, MissExceedsHit) {
  const LatencyModel m;
  util::Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_GT(
        m.miss(util::Millis{3.0}, util::Millis{2.0}, util::Millis{2.9}, rng)
            .value(),
        m.hit_routed(util::Millis{3.0}, util::Millis{2.0}).value());
  }
}

TEST(LatencyModel, BaselineMediansMatchPaper) {
  // Fig. 10's baselines: bent-pipe Starlink median ~55 ms, terrestrial CDN
  // single-digit-to-low-tens median, StarCDN ~22 ms.
  const LatencyModel m;
  util::Rng rng(2);
  util::QuantileSampler terrestrial, bentpipe;
  for (int i = 0; i < 50'000; ++i) {
    terrestrial.add(m.terrestrial_cdn(rng.normal_draw()).value());
    bentpipe.add(
        m.bentpipe_starlink(util::Millis{2.94}, rng.normal_draw()).value());
  }
  EXPECT_GT(terrestrial.median(), 4.0);
  EXPECT_LT(terrestrial.median(), 20.0);
  EXPECT_NEAR(bentpipe.median(), 55.0, 8.0);
  EXPECT_LT(terrestrial.median(), bentpipe.median());
}

TEST(LatencyModel, StarCdnHitBeatsBentPipe) {
  // A local or routed hit (a handful of GSL/ISL traversals) must beat the
  // bent-pipe median by a wide margin — the 2.5x improvement of §5.3.
  const LatencyModel m;
  util::Rng rng(3);
  util::QuantileSampler bentpipe;
  for (int i = 0; i < 20'000; ++i) {
    bentpipe.add(
        m.bentpipe_starlink(util::Millis{2.94}, rng.normal_draw()).value());
  }
  const double routed_hit =
      m.hit_routed(util::Millis{2.94}, m.grid_hops_delay(2, 0)).value();
  EXPECT_LT(routed_hit, bentpipe.median() / 2.0);
}

TEST(LatencyModel, CustomParams) {
  LatencyModelParams p;
  p.inter_orbit_hop = util::Millis{10.0};
  const LatencyModel m(p);
  EXPECT_DOUBLE_EQ(m.grid_hops_delay(3, 0).value(), 30.0);
  EXPECT_DOUBLE_EQ(m.params().inter_orbit_hop.value(), 10.0);
}

}  // namespace
}  // namespace starcdn::net
