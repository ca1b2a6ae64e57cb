#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "orbit/constellation.h"
#include "orbit/propagator.h"
#include "orbit/vec3.h"
#include "util/units.h"

namespace starcdn::orbit {
namespace {

CircularElements starlink_like() {
  CircularElements e;
  e.semi_major_axis = util::Km{util::kEarthRadiusKm + 550.0};
  e.inclination = util::Radians{util::to_radians(util::Degrees{53.0}).value()};
  e.raan = util::Radians{0.3};
  e.arg_latitude_epoch = util::Radians{1.1};
  return e;
}

TEST(Vec3, Algebra) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_DOUBLE_EQ((a + b).x, 5.0);
  EXPECT_DOUBLE_EQ((b - a).z, 3.0);
  EXPECT_DOUBLE_EQ((a * 2.0).y, 4.0);
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
  const Vec3 c = a.cross(b);
  EXPECT_DOUBLE_EQ(c.x, -3.0);
  EXPECT_DOUBLE_EQ(c.y, 6.0);
  EXPECT_DOUBLE_EQ(c.z, -3.0);
  EXPECT_NEAR((Vec3{3, 4, 0}.norm()), 5.0, 1e-12);
  EXPECT_NEAR((Vec3{3, 4, 0}.normalized().norm()), 1.0, 1e-12);
}

TEST(Vec3, RotateZ) {
  const Vec3 x{1, 0, 0};
  const Vec3 r = rotate_z(x, M_PI / 2);
  EXPECT_NEAR(r.x, 0.0, 1e-12);
  EXPECT_NEAR(r.y, 1.0, 1e-12);
  EXPECT_NEAR(r.z, 0.0, 1e-12);
}

TEST(Propagator, PeriodIsAbout95Minutes) {
  // 550 km circular orbit: T = 2*pi*sqrt(a^3/mu) ≈ 5'740 s.
  EXPECT_NEAR(orbital_period(starlink_like()).value(), 5740.0, 30.0);
}

TEST(Propagator, RadiusIsInvariant) {
  const auto e = starlink_like();
  for (double t = 0.0; t < 6'000.0; t += 321.0) {
    EXPECT_NEAR(eci_position(e, util::Seconds{t}).norm(), e.semi_major_axis.value(), 1e-6);
    EXPECT_NEAR(ecef_position(e, util::Seconds{t}).norm(), e.semi_major_axis.value(), 1e-6);
  }
}

TEST(Propagator, EcefPositionBitsPinned) {
  // Paper-shell slots at fixed times. The bits were captured from the
  // propagator that recomputed every constant per call; hoisting them must
  // not move a single bit.
  struct Pin {
    int sat;
    double t;
    std::uint64_t x, y, z;
  };
  const Pin pins[] = {
      {0, 0.0, 0x40bb090000000000ULL,
       0x0000000000000000ULL, 0x0000000000000000ULL},
      {0, 15.0, 0x40bb082278401c00ULL,
       0x404e77b4211caad4ULL, 0x4056ba25c5fcd316ULL},
      {0, 12345.5, 0x40b401f2cc0ac6c4ULL,
       0xc08cf18688c0a8bcULL, 0x40b1d195b72be76dULL},
      {0, 86385.0, 0x40b82901e3c0a0c6ULL,
       0x409c3469e7c78212ULL, 0x40a3beb61109ff50ULL},
      {1, 0.0, 0x40b9679cd537fd2cULL,
       0x40964246e3882f2dULL, 0x409d89de6deb3949ULL},
      {1, 15.0, 0x40b9416ce6a2bf50ULL,
       0x409726b6e690c332ULL, 0x409ede8ce9062305ULL},
      {1, 12345.5, 0x40b0856ad930a768ULL,
       0x409220933bc9205bULL, 0x40b4ea1862fd87bfULL},
      {1, 86385.0, 0x40b28e33347d36f4ULL,
       0x40a748e17d7bfeeaULL, 0x40afb06a04135bedULL},
      {17, 0.0, 0x40b9679cd537fd2aULL,
       0xc0964246e3882f3aULL, 0xc09d89de6deb395aULL},
      {17, 15.0, 0x40b98c2c6c93963cULL,
       0xc0955ca1b7af1dc8ULL, 0xc09c3324428cc6e9ULL},
      {17, 12345.5, 0x40b514b2684025d0ULL,
       0xc0a6a9a034168cc8ULL, 0x40a925c28782adf8ULL},
      {17, 86385.0, 0x40bad9cfc3303ec9ULL,
       0x4079c0b58ba6dbe8ULL, 0x4085ad578d636ec5ULL},
      {613, 0.0, 0xc0b89303eac1a3efULL,
       0xc08e4e8b89c6b7eeULL, 0x40a53a44e65d2060ULL},
      {613, 15.0, 0xc0b8668c8d396e28ULL,
       0xc0901d4917f94ce3ULL, 0x40a5d7ddcba4b4cfULL},
      {613, 12345.5, 0xc0aeba65f78156aaULL,
       0xc096ab7286064d00ULL, 0x40b582d4ae9628a4ULL},
      {613, 86385.0, 0xc0b12ad3e4847615ULL,
       0xc0a50efd51d73dfcULL, 0x40b2095cdaa8ea4aULL},
      {1295, 0.0, 0x40baecd29102774eULL,
       0xc0837a8366866577ULL, 0xc03acc1a34f658ccULL},
      {1295, 15.0, 0x40baf1cc990f1fdaULL,
       0xc08194a439739088ULL, 0x405007491a7d7eb2ULL},
      {1295, 12345.5, 0x40b3a368b9b59574ULL,
       0xc095d9cda6c3d8adULL, 0x40b1c265df05df3aULL},
      {1295, 86385.0, 0x40b8bc2131b480ffULL,
       0x40935edbf2d47eb5ULL, 0x40a38efcebcb89d0ULL},
  };
  const Constellation shell{WalkerParams{}};
  for (const Pin& p : pins) {
    const util::Seconds t{p.t};
    const auto& e = shell.elements(shell.id_of(util::SatId{p.sat}));
    const Vec3 v = ecef_position(e, t);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v.x), p.x) << p.sat << " @ " << p.t;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v.y), p.y) << p.sat << " @ " << p.t;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v.z), p.z) << p.sat << " @ " << p.t;
    // The constellation's batch path is the same arithmetic.
    const Vec3 batch =
        shell.all_positions_ecef(t)[static_cast<std::size_t>(p.sat)];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(batch.x), p.x);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(batch.y), p.y);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(batch.z), p.z);
  }
}

TEST(Propagator, ReturnsToStartAfterOnePeriodInEci) {
  const auto e = starlink_like();
  const double T = orbital_period(e).value();
  const Vec3 p0 = eci_position(e, util::Seconds{0.0});
  const Vec3 p1 = eci_position(e, util::Seconds{T});
  EXPECT_NEAR(distance(p0, p1), 0.0, 1.0);  // within 1 km numerically
}

TEST(Propagator, EcefDriftsWestwardPerOrbit) {
  // After one orbital period Earth has rotated ~24 degrees east, so the
  // ground track shifts ~24 degrees west (Fig. 3's precession).
  const auto e = starlink_like();
  const double T = orbital_period(e).value();
  const auto g0 = ground_track_point(e, util::Seconds{0.0});
  const auto g1 = ground_track_point(e, util::Seconds{T});
  const double shift = util::wrap_lon_deg(g0.lon_deg - g1.lon_deg);
  EXPECT_NEAR(shift, 360.0 * T / util::kEarthSiderealDay.value(), 0.5);
}

TEST(Propagator, GroundTrackBoundedByInclination) {
  const auto e = starlink_like();
  for (double t = 0.0; t < 12'000.0; t += 97.0) {
    EXPECT_LE(std::abs(ground_track_point(e, util::Seconds{t}).lat_deg), 53.0 + 1e-6);
  }
}

TEST(Propagator, GroundTrackReachesInclinationLatitude) {
  const auto e = starlink_like();
  double max_lat = 0.0;
  for (double t = 0.0; t < 6'000.0; t += 10.0) {
    max_lat = std::max(max_lat, std::abs(ground_track_point(e, util::Seconds{t}).lat_deg));
  }
  EXPECT_GT(max_lat, 52.5);
}

TEST(Propagator, GeodeticEcefRoundTrip) {
  for (const auto& g : {util::GeoCoord{0, 0}, util::GeoCoord{40.7, -74.0},
                        util::GeoCoord{-33.9, 151.2}, util::GeoCoord{89.0, 10.0}}) {
    const auto back = ecef_to_geodetic(geodetic_to_ecef(g));
    EXPECT_NEAR(back.lat_deg, g.lat_deg, 1e-9);
    EXPECT_NEAR(back.lon_deg, g.lon_deg, 1e-9);
  }
}

TEST(Propagator, GeodeticAltitude) {
  const auto p = geodetic_to_ecef({0.0, 0.0}, util::Km{550.0});
  EXPECT_NEAR(p.norm(), util::kEarthRadiusKm + 550.0, 1e-9);
}

TEST(Propagator, EciToEcefAtTimeZeroIsIdentity) {
  const Vec3 p{1000.0, 2000.0, 3000.0};
  const Vec3 q = eci_to_ecef(p, util::Seconds{0.0});
  EXPECT_DOUBLE_EQ(q.x, p.x);
  EXPECT_DOUBLE_EQ(q.y, p.y);
  EXPECT_DOUBLE_EQ(q.z, p.z);
}

}  // namespace
}  // namespace starcdn::orbit
