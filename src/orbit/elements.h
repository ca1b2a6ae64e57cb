// Keplerian orbital elements for circular LEO orbits.
//
// StarCDN models the Starlink shell as circular orbits (eccentricity of the
// operational shell is < 0.0002), so the element set reduces to semi-major
// axis, inclination, RAAN and the argument of latitude at epoch. The TLE
// parser maps general element sets onto this circular model.
//
// All angular fields are strong util::Radians and lengths are util::Km —
// constructing an element set from degrees without going through
// util::to_radians is a compile error.
#pragma once

#include "util/units.h"

namespace starcdn::orbit {

struct CircularElements {
  util::Km semi_major_axis{6921.0};  // 550 km altitude + Earth radius
  util::Radians inclination{0.0};
  util::Radians raan{0.0};  // right ascension of ascending node
  util::Radians arg_latitude_epoch{0.0};  // u0 = omega + M0, circular orbits
};

}  // namespace starcdn::orbit
