// Plain 3-vector math for orbital geometry. Kept header-only and constexpr-
// friendly; no external linear-algebra dependency is warranted for the
// handful of operations the propagator needs.
#pragma once

#include <cmath>

namespace starcdn::orbit {

struct Vec3 {
  double x = 0.0, y = 0.0, z = 0.0;

  constexpr Vec3 operator+(const Vec3& o) const noexcept {
    return {x + o.x, y + o.y, z + o.z};
  }
  constexpr Vec3 operator-(const Vec3& o) const noexcept {
    return {x - o.x, y - o.y, z - o.z};
  }
  constexpr Vec3 operator*(double k) const noexcept {
    return {x * k, y * k, z * k};
  }
  constexpr double dot(const Vec3& o) const noexcept {
    return x * o.x + y * o.y + z * o.z;
  }
  constexpr Vec3 cross(const Vec3& o) const noexcept {
    return {y * o.z - z * o.y, z * o.x - x * o.z, x * o.y - y * o.x};
  }
  double norm() const noexcept { return std::sqrt(dot(*this)); }
  Vec3 normalized() const noexcept {
    const double n = norm();
    return n > 0.0 ? Vec3{x / n, y / n, z / n} : Vec3{};
  }
};

[[nodiscard]] inline double distance(const Vec3& a, const Vec3& b) noexcept {
  return (a - b).norm();
}

/// Rotate `v` about the +z axis by the angle whose cosine and sine are `c`
/// and `s`; callers rotating many vectors by one angle compute them once.
[[nodiscard]] constexpr Vec3 rotate_z(const Vec3& v, double c,
                                      double s) noexcept {
  return {c * v.x - s * v.y, s * v.x + c * v.y, v.z};
}

/// Rotate `v` about the +z axis by `angle_rad` (counter-clockwise looking
/// down +z). Used for both RAAN placement and ECI->ECEF Earth rotation.
[[nodiscard]] inline Vec3 rotate_z(const Vec3& v, double angle_rad) noexcept {
  return rotate_z(v, std::cos(angle_rad), std::sin(angle_rad));
}

}  // namespace starcdn::orbit
