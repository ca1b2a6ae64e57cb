// Circular two-body propagation, ECI/ECEF frames, and geodetic conversion.
//
// This is the orbital-mechanics substrate that substitutes for the paper's
// use of Microsoft CosmicBeats: it produces satellite positions over time,
// ground tracks (Fig. 3), and the inputs for visibility and link-delay
// computation (Table 1).
//
// Times are strong util::Seconds and angles util::Radians; Vec3 components
// are implicit km (see DESIGN.md §10 for why the vector stays raw).
#pragma once

#include "orbit/elements.h"
#include "orbit/vec3.h"
#include "util/geo.h"
#include "util/units.h"

namespace starcdn::orbit {

/// Mean motion n = sqrt(mu/a^3) in rad/s (rate composite; raw by design).
[[nodiscard]] double mean_motion_rad_s(const CircularElements& e) noexcept;

/// Orbital period (~5'740 s, i.e. about 95 min, for 550 km).
[[nodiscard]] util::Seconds orbital_period(const CircularElements& e) noexcept;

/// The ECI -> ECEF rotation at `t` past epoch (Earth rotates by w_e * t; the
/// epoch is defined with ECI and ECEF aligned, which is sufficient for a
/// self-consistent simulation). Its cosine and sine are computed once and
/// shared by every satellite propagated to `t`.
class EarthRotation {
 public:
  explicit EarthRotation(util::Seconds t) noexcept;

  [[nodiscard]] Vec3 to_ecef(const Vec3& eci) const noexcept {
    return rotate_z(eci, cos_, sin_);
  }

 private:
  double cos_;
  double sin_;
};

/// A circular orbit with its time-invariant terms computed once: the mean
/// motion and the cosines and sines of inclination and RAAN. Propagating it
/// then costs one cosine and sine of the argument of latitude. Every
/// circular propagation (eci_position, ecef_position, the constellation's
/// positions) goes through this class, so the arithmetic and its bits
/// exist in one place.
class CircularOrbit {
 public:
  explicit CircularOrbit(const CircularElements& e) noexcept;

  /// Mean motion n = sqrt(mu/a^3) in rad/s.
  [[nodiscard]] double mean_motion_rad_s() const noexcept { return n_; }

  /// Position in the Earth-Centered Inertial frame at `t` past epoch.
  [[nodiscard]] Vec3 eci(util::Seconds t) const noexcept;

  /// Position in ECEF; `earth` must be EarthRotation(t).
  [[nodiscard]] Vec3 ecef(util::Seconds t,
                          const EarthRotation& earth) const noexcept {
    return earth.to_ecef(eci(t));
  }

 private:
  double a_;
  double n_;
  double u0_;
  double cos_i_, sin_i_;
  double cos_raan_, sin_raan_;
};

/// Position in the Earth-Centered Inertial frame at `t` past epoch.
[[nodiscard]] Vec3 eci_position(const CircularElements& e,
                                util::Seconds t) noexcept;

/// Rotate ECI -> ECEF given elapsed time (see EarthRotation).
[[nodiscard]] Vec3 eci_to_ecef(const Vec3& eci, util::Seconds t) noexcept;

/// Satellite position directly in ECEF.
[[nodiscard]] Vec3 ecef_position(const CircularElements& e,
                                 util::Seconds t) noexcept;

/// Geodetic (spherical-Earth) <-> ECEF for ground points at given altitude.
[[nodiscard]] Vec3 geodetic_to_ecef(const util::GeoCoord& g,
                                    util::Km altitude = util::Km{0.0}) noexcept;
[[nodiscard]] util::GeoCoord ecef_to_geodetic(const Vec3& ecef) noexcept;

/// Sub-satellite point (ground track sample) at time t.
[[nodiscard]] util::GeoCoord ground_track_point(const CircularElements& e,
                                                util::Seconds t) noexcept;

}  // namespace starcdn::orbit
