// Elliptical (full Keplerian) propagation and the uplink bandwidth meter.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "net/bandwidth.h"
#include "orbit/propagator.h"
#include "orbit/tle.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/units.h"

namespace starcdn {
namespace {

using orbit::KeplerianElements;

TEST(Kepler, SolverOnCircularOrbitIsIdentity) {
  for (double M = -3.0; M <= 3.0; M += 0.37) {
    EXPECT_NEAR(orbit::solve_kepler(util::Radians{M}, 0.0).value(), M, 1e-12);
  }
}

TEST(Kepler, SolverSatisfiesEquation) {
  for (const double e : {0.01, 0.1, 0.4, 0.7, 0.85}) {
    for (double M = 0.0; M < 6.28; M += 0.41) {
      const double E = orbit::solve_kepler(util::Radians{M}, e).value();
      EXPECT_NEAR(E - e * std::sin(E), M, 1e-10)
          << "e=" << e << " M=" << M;
    }
  }
}

KeplerianElements molniya_like() {
  KeplerianElements e;
  e.semi_major_axis = util::Km{26'600.0};
  e.eccentricity = 0.74;
  e.inclination = util::Radians{util::to_radians(util::Degrees{63.4}).value()};
  e.arg_perigee = util::Radians{util::to_radians(util::Degrees{270.0}).value()};
  return e;
}

TEST(Kepler, RadiusBoundedByApsides) {
  const auto e = molniya_like();
  const double perigee = e.semi_major_axis.value() * (1.0 - e.eccentricity);
  const double apogee = e.semi_major_axis.value() * (1.0 + e.eccentricity);
  const double T = 2.0 * M_PI / orbit::mean_motion_rad_s(e);
  double rmin = 1e18, rmax = 0.0;
  for (double t = 0.0; t < T; t += T / 500.0) {
    const double r = orbit::eci_position(e, util::Seconds{t}).norm();
    rmin = std::min(rmin, r);
    rmax = std::max(rmax, r);
    ASSERT_GE(r, perigee - 1.0);
    ASSERT_LE(r, apogee + 1.0);
  }
  EXPECT_NEAR(rmin, perigee, 5.0);
  EXPECT_NEAR(rmax, apogee, 5.0);
}

TEST(Kepler, ReducesToCircularAtZeroEccentricity) {
  orbit::CircularElements c;
  c.semi_major_axis = util::Km{6'921.0};
  c.inclination = util::Radians{util::to_radians(util::Degrees{53.0}).value()};
  c.raan = util::Radians{0.7};
  c.arg_latitude_epoch = util::Radians{1.3};
  KeplerianElements k;
  k.semi_major_axis = util::Km{c.semi_major_axis.value()};
  k.eccentricity = 0.0;
  k.inclination = util::Radians{c.inclination.value()};
  k.raan = util::Radians{c.raan.value()};
  k.arg_perigee = util::Radians{0.9};
  k.mean_anomaly_epoch = util::Radians{0.4};  // w + M = 1.3 = u0
  for (double t = 0.0; t < 6'000.0; t += 500.0) {
    const auto a = orbit::eci_position(c, util::Seconds{t});
    const auto b = orbit::eci_position(k, util::Seconds{t});
    EXPECT_NEAR(orbit::distance(a, b), 0.0, 0.5) << "t=" << t;
  }
}

TEST(Kepler, TleToKeplerianKeepsEccentricity) {
  orbit::Tle t;
  t.eccentricity = 0.0006703;
  t.inclination_deg = 51.64;
  t.arg_perigee_deg = 130.5;
  t.mean_anomaly_deg = 325.0;
  t.mean_motion_rev_day = 15.72;
  const auto e = t.to_keplerian();
  EXPECT_DOUBLE_EQ(e.eccentricity, 0.0006703);
  EXPECT_NEAR(e.arg_perigee.value(), util::to_radians(util::Degrees{130.5}).value(), 1e-12);
  // Same semi-major axis as the circular reduction.
  EXPECT_NEAR(e.semi_major_axis.value(), t.to_circular().semi_major_axis.value(), 1e-9);
}

// --- UplinkMeter ---------------------------------------------------------------

TEST(UplinkMeter, ThroughputArithmetic) {
  net::UplinkMeter meter(util::Seconds{15.0}, util::gbps(20.0));
  // 1 GB in one epoch = 8 Gb / 15 s ≈ 0.533 Gbps.
  meter.add(util::SatId{7}, util::EpochIdx{0}, 1'000'000'000);
  meter.flush();
  EXPECT_EQ(meter.throughput_gbps().count(), 1u);
  EXPECT_NEAR(meter.throughput_gbps().mean(), 0.533, 0.01);
  EXPECT_EQ(meter.overloaded_cells(), 0u);
  EXPECT_EQ(meter.total_bytes(), 1'000'000'000u);
}

TEST(UplinkMeter, AccumulatesWithinEpochSplitsAcross) {
  net::UplinkMeter meter(util::Seconds{15.0}, util::gbps(20.0));
  meter.add(util::SatId{1}, util::EpochIdx{0}, 500);
  meter.add(util::SatId{1}, util::EpochIdx{0}, 500);   // same cell
  meter.add(util::SatId{1}, util::EpochIdx{1}, 500);   // next epoch: first cell flushed
  meter.flush();
  EXPECT_EQ(meter.throughput_gbps().count(), 2u);
}

TEST(UplinkMeter, DetectsOverload) {
  net::UplinkMeter meter(util::Seconds{15.0}, util::gbps(20.0));
  // 20 Gbps * 15 s = 37.5 GB; exceed it.
  meter.add(util::SatId{3}, util::EpochIdx{0}, 40'000'000'000ULL);
  meter.flush();
  EXPECT_EQ(meter.overloaded_cells(), 1u);
}

TEST(UplinkMeter, SeparateSatellitesSeparateCells) {
  net::UplinkMeter meter;
  meter.add(util::SatId{1}, util::EpochIdx{0}, 100);
  meter.add(util::SatId{2}, util::EpochIdx{0}, 100);
  meter.flush();
  EXPECT_EQ(meter.throughput_gbps().count(), 2u);
}

TEST(UplinkMeter, MatchesMapReference) {
  // The dense meter against a map-based reference of the same accounting:
  // counts, peak, overloads and bytes are exact; the mean, summed in a
  // different cell order, agrees to rounding.
  struct Reference {
    std::map<int, util::Bytes> cells;
    util::RunningStats stats;
    std::uint64_t overloads = 0;
    void flush() {
      for (const auto& [sat, bytes] : cells) {
        const double gbps = static_cast<double>(bytes) * 8.0 / 1e9 / 15.0;
        stats.add(gbps);
        if (gbps > 20.0) ++overloads;
      }
      cells.clear();
    }
  };
  std::uint64_t overloads = 0, cells = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    util::Rng rng(seed);
    net::UplinkMeter meter(util::Seconds{15.0}, util::gbps(20.0));
    Reference ref;
    util::Bytes total = 0;
    std::size_t epoch = 0;
    for (int i = 0; i < 20'000; ++i) {
      if (rng.bernoulli(0.005)) {
        epoch += 1 + rng.below(3);
        ref.flush();
      }
      const int sat = static_cast<int>(rng.below(seed == 1 ? 16 : 1'296));
      const util::Bytes bytes = 1 + rng.below(util::gib(16));
      meter.add(util::SatId{sat}, util::EpochIdx{epoch}, bytes);
      ref.cells[sat] += bytes;
      total += bytes;
    }
    meter.flush();
    ref.flush();
    SCOPED_TRACE("seed " + std::to_string(seed));
    const util::RunningStats& got = meter.throughput_gbps();
    EXPECT_EQ(got.count(), ref.stats.count());
    EXPECT_EQ(got.max(), ref.stats.max());
    EXPECT_EQ(meter.overloaded_cells(), ref.overloads);
    EXPECT_EQ(meter.total_bytes(), total);
    EXPECT_NEAR(got.mean(), ref.stats.mean(), 1e-12 * ref.stats.mean());
    overloads += ref.overloads;
    cells += ref.stats.count();
  }
  // 16 slots overload most cells, 1,296 slots few.
  EXPECT_GT(overloads, 0u);
  EXPECT_LT(overloads, cells);
}

}  // namespace
}  // namespace starcdn
