#include "orbit/propagator.h"

#include <cmath>

#include "util/units.h"

namespace starcdn::orbit {

using util::kEarthMuKm3PerS2;
using util::kEarthRadiusKm;
using util::kEarthRotationRadPerS;

double mean_motion_rad_s(const CircularElements& e) noexcept {
  const double a = e.semi_major_axis.value();
  return std::sqrt(kEarthMuKm3PerS2 / (a * a * a));
}

util::Seconds orbital_period(const CircularElements& e) noexcept {
  return util::Seconds{2.0 * M_PI / mean_motion_rad_s(e)};
}

EarthRotation::EarthRotation(util::Seconds t) noexcept {
  const double angle = -kEarthRotationRadPerS * t.value();
  cos_ = std::cos(angle);
  sin_ = std::sin(angle);
}

CircularOrbit::CircularOrbit(const CircularElements& e) noexcept
    : a_(e.semi_major_axis.value()),
      n_(orbit::mean_motion_rad_s(e)),
      u0_(e.arg_latitude_epoch.value()),
      cos_i_(std::cos(e.inclination.value())),
      sin_i_(std::sin(e.inclination.value())),
      cos_raan_(std::cos(e.raan.value())),
      sin_raan_(std::sin(e.raan.value())) {}

Vec3 CircularOrbit::eci(util::Seconds t) const noexcept {
  const double u = u0_ + n_ * t.value();
  const double cu = std::cos(u), su = std::sin(u);
  // Position in the orbital plane rotated by inclination, then RAAN.
  const Vec3 in_plane{a_ * cu, a_ * su * cos_i_, a_ * su * sin_i_};
  return rotate_z(in_plane, cos_raan_, sin_raan_);
}

Vec3 eci_position(const CircularElements& e, util::Seconds t) noexcept {
  return CircularOrbit(e).eci(t);
}

Vec3 eci_to_ecef(const Vec3& eci, util::Seconds t) noexcept {
  return EarthRotation(t).to_ecef(eci);
}

Vec3 ecef_position(const CircularElements& e, util::Seconds t) noexcept {
  return CircularOrbit(e).ecef(t, EarthRotation(t));
}

Vec3 geodetic_to_ecef(const util::GeoCoord& g, util::Km altitude) noexcept {
  const double lat = util::to_radians(util::Degrees{g.lat_deg}).value();
  const double lon = util::to_radians(util::Degrees{g.lon_deg}).value();
  const double r = kEarthRadiusKm + altitude.value();
  return {r * std::cos(lat) * std::cos(lon), r * std::cos(lat) * std::sin(lon),
          r * std::sin(lat)};
}

util::GeoCoord ecef_to_geodetic(const Vec3& ecef) noexcept {
  const double r = ecef.norm();
  util::GeoCoord g;
  if (r <= 0.0) return g;
  g.lat_deg = util::to_degrees(util::Radians{std::asin(ecef.z / r)}).value();
  g.lon_deg =
      util::to_degrees(util::Radians{std::atan2(ecef.y, ecef.x)}).value();
  return g;
}

util::GeoCoord ground_track_point(const CircularElements& e,
                                  util::Seconds t) noexcept {
  return ecef_to_geodetic(ecef_position(e, t));
}

}  // namespace starcdn::orbit
