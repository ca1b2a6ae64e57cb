// Constellation explorer: inspect the orbital substrate — shell geometry,
// ground tracks, visibility from any city, ISL health, and bucket layout.
//
//   $ ./constellation_explorer [lat lon]
//
// Defaults to New York. The latitude must be a number in [-90, 90] and the
// longitude one in [-180, 180]; anything else exits 1 naming the value.
// Demonstrates the orbit/net/core substrate APIs without any CDN
// simulation.
#include <cstdio>

#include "core/bucket_mapper.h"
#include "net/link.h"
#include "orbit/constellation.h"
#include "orbit/visibility.h"
#include "util/csv.h"
#include "util/geo.h"

namespace {

/// Parses `text` into `out` as degrees in [-limit, limit]; false, after
/// printing why, when it is not.
bool degrees(const char* name, const char* text, double limit, double& out) {
  if (const char* why = starcdn::util::parse_number(text, out)) {
    std::fprintf(stderr, "bad %s: '%s' %s\n", name, text, why);
    return false;
  }
  if (!(out >= -limit && out <= limit)) {
    std::fprintf(stderr, "bad %s: '%s' is outside [-%g, %g]\n", name, text,
                 limit, limit);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace starcdn;

  util::GeoCoord where{40.71, -74.01};
  if (argc != 1 && argc != 3) {
    std::fprintf(stderr, "usage: constellation_explorer [lat lon]\n");
    return 1;
  }
  if (argc == 3 && !(degrees("latitude", argv[1], 90.0, where.lat_deg) &&
                     degrees("longitude", argv[2], 180.0, where.lon_deg))) {
    return 1;
  }

  // The Starlink 53-degree shell.
  const orbit::Constellation shell{orbit::WalkerParams{}};
  std::printf("Shell: %d planes x %d slots = %d satellites @ %.0f km, %.0f deg\n",
              shell.planes(), shell.slots_per_plane(), shell.size(),
              shell.params().altitude.value(), shell.params().inclination.value());
  std::printf("Orbital period: %.1f min\n",
              orbit::orbital_period(shell.elements({0, 0})).value() / 60.0);

  // Who can this user see right now, and over the next 10 minutes?
  const orbit::VisibilityOracle oracle(util::Degrees{25.0});
  std::printf("\nVisibility from (%.2f, %.2f), 25 deg mask:\n", where.lat_deg,
              where.lon_deg);
  for (double t = 0.0; t <= 600.0; t += 120.0) {
    const auto visible =
        oracle.visible(where, shell, shell.all_positions_ecef(util::Seconds{t}));
    std::printf("  t=%3.0fs: %2zu satellites in view", t, visible.size());
    if (!visible.empty()) {
      const auto id = shell.id_of(visible.front().sat);
      std::printf("; best (plane %2d, slot %2d) el=%.0f deg range=%.0f km",
                  id.plane.value(), id.slot.value(),
                  visible.front().elevation.value(),
                  visible.front().range.value());
    }
    std::printf("\n");
  }

  // Ground track of one satellite across half an orbit.
  std::printf("\nGround track of satellite (0,0):\n");
  for (double t = 0.0; t <= 2'880.0; t += 480.0) {
    const auto g =
        orbit::ground_track_point(shell.elements({0, 0}), util::Seconds{t});
    std::printf("  t=%4.0fs  lat %6.1f  lon %7.1f\n", t, g.lat_deg, g.lon_deg);
  }

  // ISL fabric and link delays.
  const orbit::IslCounts isls = shell.isl_counts();
  const auto delays = net::measure_link_delays(shell, {where}, util::Seconds{300.0},
                                           util::Seconds{60.0});
  std::printf("\nISL fabric: %d links, %d broken\n", isls.established,
              isls.broken);
  std::printf("  intra-orbit hop: %.2f ms   inter-orbit hop: %.2f ms   "
              "GSL: %.2f ms\n",
              delays.intra_orbit_isl.mean(), delays.inter_orbit_isl.mean(),
              delays.gsl.mean());

  // StarCDN bucket layout seen from this user's best satellite.
  const core::BucketMapper mapper(shell, 4);
  const auto visible = oracle.visible(where, shell, shell.all_positions_ecef(util::Seconds{0}));
  if (!visible.empty()) {
    const auto fc = shell.id_of(visible.front().sat);
    std::printf("\nBucket routing from first contact (plane %d, slot %d):\n",
                fc.plane.value(), fc.slot.value());
    for (int b = 0; b < mapper.buckets(); ++b) {
      const auto owner = mapper.owner(fc, util::BucketId{b});
      const auto [inter, intra] = mapper.hop_split(fc, *owner);
      std::printf("  bucket %d -> (plane %2d, slot %2d), %d+%d hops\n", b,
                  owner->plane.value(), owner->slot.value(), inter, intra);
    }
    const auto west = mapper.west_replica(*mapper.owner(fc, util::BucketId{0}));
    std::printf("  relay replica of bucket 0 owner: (plane %d, slot %d)\n",
                west->plane.value(), west->slot.value());
  }
  return 0;
}
