#include "orbit/constellation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "orbit/tle.h"
#include "util/rng.h"
#include "util/units.h"

namespace starcdn::orbit {
namespace {

WalkerParams small_shell() {
  WalkerParams p;
  p.planes = 12;
  p.slots_per_plane = 6;
  return p;
}

TEST(Constellation, StarlinkShellShape) {
  const Constellation c{WalkerParams{}};
  EXPECT_EQ(c.planes(), 72);
  EXPECT_EQ(c.slots_per_plane(), 18);
  EXPECT_EQ(c.size(), 1296);  // the 1296 slots of §5.4
  EXPECT_EQ(c.active_count(), 1296);
}

TEST(Constellation, IndexIdRoundTrip) {
  const Constellation c{small_shell()};
  for (int i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c.index_of(c.id_of(util::SatId{i})).value(), i);
  }
}

TEST(Constellation, RaanSpreadOverFullCircle) {
  const Constellation c{small_shell()};
  const double raan0 = c.elements({0, 0}).raan.value();
  const double raan6 = c.elements({6, 0}).raan.value();
  EXPECT_NEAR(raan6 - raan0, M_PI, 1e-9);  // half the planes = half circle
}

TEST(Constellation, AltitudeApplied) {
  const Constellation c{WalkerParams{}};
  EXPECT_NEAR(c.elements({3, 5}).semi_major_axis.value(),
              util::kEarthRadiusKm + 550.0, 1e-9);
}

TEST(Constellation, NeighborsWrapToroidally) {
  const Constellation c{small_shell()};
  EXPECT_EQ(c.intra_next({0, 5}), (SatelliteId{0, 0}));
  EXPECT_EQ(c.intra_prev({0, 0}), (SatelliteId{0, 5}));
  EXPECT_EQ(c.inter_east({11, 3}), (SatelliteId{0, 3}));
  EXPECT_EQ(c.inter_west({0, 3}), (SatelliteId{11, 3}));
  EXPECT_EQ(c.plane_offset({1, 1}, -3), (SatelliteId{10, 1}));
  EXPECT_EQ(c.slot_offset({1, 1}, 7), (SatelliteId{1, 2}));
}

TEST(Constellation, GridHopsToroidal) {
  const Constellation c{small_shell()};
  EXPECT_EQ(c.grid_hops({0, 0}, {0, 0}), 0);
  EXPECT_EQ(c.grid_hops({0, 0}, {1, 1}), 2);
  EXPECT_EQ(c.grid_hops({0, 0}, {11, 5}), 2);  // wraps both axes
  EXPECT_EQ(c.grid_hops({0, 0}, {6, 3}), 9);   // max distance on this grid
}

TEST(Constellation, AdjacentSlotsAreAboutOneSpacingApart) {
  // 18 slots on a 6,921 km radius orbit: chord ~ 2,400 km -> 8 ms (Table 1).
  const Constellation c{WalkerParams{}};
  const double d = distance(c.position_ecef({0, 0}, util::Seconds{0.0}),
                            c.position_ecef({0, 1}, util::Seconds{0.0}));
  EXPECT_NEAR(d, 2.0 * (util::kEarthRadiusKm + 550.0) *
                     std::sin(M_PI / 18.0),
              1.0);
}

TEST(Constellation, KnockOutRandomFraction) {
  Constellation c{WalkerParams{}};
  util::Rng rng(1);
  c.knock_out_random(0.097, rng);  // the paper's 9.7% out-of-slot rate
  EXPECT_EQ(c.active_count(), 1296 - 126);
}

TEST(Constellation, KnockOutIsDeterministic) {
  Constellation a{small_shell()}, b{small_shell()};
  util::Rng ra(9), rb(9);
  a.knock_out_random(0.25, ra);
  b.knock_out_random(0.25, rb);
  for (int i = 0; i < a.size(); ++i) EXPECT_EQ(a.active(util::SatId{i}), b.active(util::SatId{i}));
}

TEST(Constellation, KnockOutRejectsNonFiniteFraction) {
  // llround(NaN) cast to size_t would clamp to every active slot.
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    Constellation c{small_shell()};
    util::Rng rng(5);
    EXPECT_THROW(c.knock_out_random(bad, rng), std::invalid_argument) << bad;
    EXPECT_EQ(c.active_count(), c.size()) << bad;
  }
}

TEST(Constellation, SetActiveToggle) {
  Constellation c{small_shell()};
  c.set_active({2, 3}, false);
  EXPECT_FALSE(c.active({2, 3}));
  EXPECT_EQ(c.active_count(), c.size() - 1);
  c.set_active({2, 3}, true);
  EXPECT_TRUE(c.active({2, 3}));
}

TEST(Constellation, FromTlesRecoversGrid) {
  // Generate a Walker shell, serialize every slot to TLE text, re-ingest,
  // and check the recovered elements match slot for slot.
  const WalkerParams p = small_shell();
  const Constellation original{p};
  std::vector<Tle> tles;
  for (int i = 0; i < original.size(); ++i) {
    const auto& e = original.elements(original.id_of(util::SatId{i}));
    Tle t;
    t.catalog_number = 50'000 + i;
    t.inclination_deg = util::to_degrees(e.inclination).value();
    t.raan_deg = util::to_degrees(e.raan).value();
    t.arg_perigee_deg = 0.0;
    t.mean_anomaly_deg = util::to_degrees(e.arg_latitude_epoch).value();
    t.mean_motion_rev_day =
        util::kDay / orbital_period(e);
    tles.push_back(t);
  }
  const Constellation rebuilt(p, tles);
  EXPECT_EQ(rebuilt.active_count(), original.size());
  for (int i = 0; i < original.size(); ++i) {
    EXPECT_NEAR(rebuilt.elements(rebuilt.id_of(util::SatId{i})).raan.value(),
                original.elements(original.id_of(util::SatId{i})).raan.value(), 1e-6);
  }
}

TEST(Constellation, FromPartialTlesMarksMissingInactive) {
  const WalkerParams p = small_shell();
  const Constellation full{p};
  std::vector<Tle> tles;
  // Only provide TLEs for plane 0.
  for (int s = 0; s < p.slots_per_plane; ++s) {
    const auto& e = full.elements({0, s});
    Tle t;
    t.catalog_number = s;
    t.inclination_deg = util::to_degrees(e.inclination).value();
    t.raan_deg = util::to_degrees(e.raan).value();
    t.mean_anomaly_deg = util::to_degrees(e.arg_latitude_epoch).value();
    t.mean_motion_rev_day = util::kDay / orbital_period(e);
    tles.push_back(t);
  }
  const Constellation partial(p, tles);
  EXPECT_EQ(partial.active_count(), p.slots_per_plane);
  EXPECT_TRUE(partial.active({0, 0}));
  EXPECT_FALSE(partial.active({1, 0}));
}

TEST(Constellation, InvalidShapeThrows) {
  WalkerParams p;
  p.planes = 0;
  EXPECT_THROW(Constellation{p}, std::invalid_argument);
}

WalkerParams isl_shell() {
  WalkerParams p;
  p.planes = 8;
  p.slots_per_plane = 6;
  return p;
}

TEST(IslCounts, HealthyGridHasTwoEdgesPerSatellite) {
  // A toroidal 4-regular graph has exactly 2N undirected edges.
  const Constellation c{isl_shell()};
  const IslCounts isls = c.isl_counts();
  EXPECT_EQ(isls.established, 2 * c.size());
  EXPECT_EQ(isls.broken, 0);
}

TEST(IslCounts, SingleFailureBreaksFourIsls) {
  Constellation c{isl_shell()};
  c.set_active({2, 3}, false);
  const IslCounts isls = c.isl_counts();
  EXPECT_EQ(isls.broken, 4);
  EXPECT_EQ(isls.established, 2 * c.size() - 4);
}

TEST(IslCounts, PaperScaleBrokenIslCount) {
  // §5.4: 126 of 1296 inactive slots led to 438 broken ISLs. With uniform
  // random knockouts, expected broken edges = 4*K*(active/(N-1))-ish; the
  // measured count should be in the hundreds, not thousands.
  Constellation c{WalkerParams{}};
  util::Rng rng(4);
  c.knock_out_random(0.097, rng);
  const IslCounts isls = c.isl_counts();
  EXPECT_GT(isls.broken, 350);
  EXPECT_LT(isls.broken, 520);
  // Every grid edge is the east or the next edge of exactly one satellite;
  // an edge with both endpoints dead is neither established nor broken.
  int dead = 0;
  for (int i = 0; i < c.size(); ++i) {
    const SatelliteId id = c.id_of(util::SatId{i});
    for (const SatelliteId nbr : {c.inter_east(id), c.intra_next(id)}) {
      if (!c.active(id) && !c.active(nbr)) ++dead;
    }
  }
  EXPECT_EQ(isls.established, 2 * c.size() - isls.broken - dead);
}

}  // namespace
}  // namespace starcdn::orbit
