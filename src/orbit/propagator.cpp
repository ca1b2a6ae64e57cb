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

util::Radians solve_kepler(util::Radians mean_anomaly,
                           double eccentricity) noexcept {
  // Newton's method on f(E) = E - e sin E - M; the standard starting guess
  // E0 = M (e small) or pi (e large) converges in a handful of steps.
  const double M = mean_anomaly.value();
  double E = eccentricity < 0.8 ? M : M_PI;
  for (int i = 0; i < 32; ++i) {
    const double f = E - eccentricity * std::sin(E) - M;
    const double fp = 1.0 - eccentricity * std::cos(E);
    const double step = f / fp;
    E -= step;
    if (std::abs(step) < 1e-13) break;
  }
  return util::Radians{E};
}

double mean_motion_rad_s(const KeplerianElements& e) noexcept {
  const double a = e.semi_major_axis.value();
  return std::sqrt(kEarthMuKm3PerS2 / (a * a * a));
}

Vec3 eci_position(const KeplerianElements& e, util::Seconds t) noexcept {
  const double M =
      e.mean_anomaly_epoch.value() + mean_motion_rad_s(e) * t.value();
  const double E = solve_kepler(util::Radians{M}, e.eccentricity).value();
  // True anomaly and radius from the eccentric anomaly.
  const double cosE = std::cos(E), sinE = std::sin(E);
  const double r = e.semi_major_axis.value() * (1.0 - e.eccentricity * cosE);
  const double nu = std::atan2(
      std::sqrt(1.0 - e.eccentricity * e.eccentricity) * sinE,
      cosE - e.eccentricity);
  // Argument of latitude, then the same plane rotation as the circular path.
  const double u = e.arg_perigee.value() + nu;
  const double ci = std::cos(e.inclination.value());
  const double si = std::sin(e.inclination.value());
  const double cu = std::cos(u), su = std::sin(u);
  const Vec3 in_plane{r * cu, r * su * ci, r * su * si};
  return rotate_z(in_plane, e.raan.value());
}

Vec3 ecef_position(const KeplerianElements& e, util::Seconds t) noexcept {
  return eci_to_ecef(eci_position(e, t), t);
}

}  // namespace starcdn::orbit
