// Ground-to-satellite visibility: which satellites a user terminal or
// ground station can see above its elevation mask.
//
// Starlink user terminals require roughly 25 degrees of elevation; at
// 550 km this yields the "10+ satellites in view" property the paper relies
// on (§3.1.2) and defines the first-contact candidate set for the link
// scheduler.
#pragma once

#include <vector>

#include "orbit/constellation.h"
#include "orbit/vec3.h"
#include "util/geo.h"
#include "util/ids.h"
#include "util/units.h"

namespace starcdn::orbit {

/// Elevation angle of a satellite at `sat_ecef` as seen from the ground
/// point `ground_ecef`; negative when below the horizon.
[[nodiscard]] util::Degrees elevation(const Vec3& ground_ecef,
                                      const Vec3& sat_ecef) noexcept;

/// Slant range between a ground point and a satellite.
[[nodiscard]] util::Km slant_range(const Vec3& ground_ecef,
                                   const Vec3& sat_ecef) noexcept;

/// Maximum slant range at which a satellite on an orbit of radius
/// `orbit_radius` can sit at or above `min_elevation` as seen from a
/// ground point `ground_radius` from the geocentre:
///   sqrt(r^2 - (R cos el)^2) - R sin el.
/// Any satellite farther away is guaranteed below the mask.
[[nodiscard]] util::Km horizon_slant_range(util::Km orbit_radius,
                                           util::Km ground_radius,
                                           util::Degrees min_elevation) noexcept;

struct VisibleSat {
  util::SatId sat = util::SatId{0};  // linear index into the constellation
  util::Degrees elevation{0.0};
  util::Km range{0.0};
};

/// Computes per-ground-point visible sets against a position snapshot.
class VisibilityOracle {
 public:
  explicit VisibilityOracle(
      util::Degrees min_elevation = util::Degrees{25.0}) noexcept
      : min_elevation_(min_elevation) {}

  [[nodiscard]] util::Degrees min_elevation() const noexcept {
    return min_elevation_;
  }

  /// All active satellites above the mask, sorted by descending elevation
  /// (best first-contact candidate first).
  [[nodiscard]] std::vector<VisibleSat> visible(
      const util::GeoCoord& ground, const Constellation& constellation,
      const std::vector<Vec3>& sat_positions_ecef) const;

  /// Same, from a precomputed ground ECEF point — callers scanning many
  /// epochs for a fixed city should convert once and use this entry point.
  /// (Named, not overloaded: {lat, lon} braces would be ambiguous with
  /// GeoCoord otherwise.)
  [[nodiscard]] std::vector<VisibleSat> visible_from_ecef(
      const Vec3& ground_ecef, const Constellation& constellation,
      const std::vector<Vec3>& sat_positions_ecef) const;

  // The steps of a scan, for callers that scan their own shortlist of
  // satellites (sched::LinkSchedule): reject_range once per ground point,
  // accept per satellite in index order, then sort_by_elevation.

  /// Cheap-reject distance for a ground point: the horizon slant range of
  /// the constellation's highest orbit at the mask, plus 1 km of slack.
  /// Any satellite farther away is below the mask.
  [[nodiscard]] util::Km reject_range(const Vec3& ground_ecef,
                                      const Constellation& constellation) const
      noexcept;

  /// The accept test: appends `sat` at `sat_ecef` to `out` when it is within
  /// `reject` of the ground point and at or above the mask.
  void accept(const Vec3& ground_ecef, util::SatId sat, const Vec3& sat_ecef,
              util::Km reject, std::vector<VisibleSat>& out) const;

  /// Orders a visible set by descending elevation (best first-contact
  /// candidate first).
  static void sort_by_elevation(std::vector<VisibleSat>& visible);

 private:
  util::Degrees min_elevation_;
};

}  // namespace starcdn::orbit
