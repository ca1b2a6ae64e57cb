// Strong unit types and physical constants shared by the simulator.
//
// Every dimensioned quantity that crosses a module boundary travels as a
// `Strong<>` wrapper (strong.h): `Km`, `Meters`, `Seconds`, `Millis`,
// `Radians`, `Degrees`, `BytesPerSec`. Mixing units does not compile; the
// ONLY conversions between them are the named functions below, so a
// deg-for-rad or km-for-ms swap is a build error instead of a silently
// corrupted latency table.
//
// Intentionally raw (see DESIGN.md §10): `Bytes` (pervasive unsigned
// payload sizes in cache/trace code), `Vec3` components (implicit km; a
// per-component wrapper would gut the vector math), and rate-of-angle
// composites like rad/s (used in two propagator-internal expressions).
#pragma once

#include <cstdint>
#include <numbers>

#include "util/strong.h"

namespace starcdn::util {

// --- Data sizes -------------------------------------------------------------
using Bytes = std::uint64_t;

inline constexpr Bytes kKiB = 1024ULL;
inline constexpr Bytes kMiB = 1024ULL * kKiB;
inline constexpr Bytes kGiB = 1024ULL * kMiB;

[[nodiscard]] constexpr Bytes gib(double n) noexcept {
  return static_cast<Bytes>(n * static_cast<double>(kGiB));
}
[[nodiscard]] constexpr Bytes mib(double n) noexcept {
  return static_cast<Bytes>(n * static_cast<double>(kMiB));
}

// --- Dimensioned quantities -------------------------------------------------
struct KmTag : UnitTag {};
struct MetersTag : UnitTag {};
struct SecondsTag : UnitTag {};
struct MillisTag : UnitTag {};
struct RadiansTag : UnitTag {};
struct DegreesTag : UnitTag {};
struct BytesPerSecTag : UnitTag {};

using Km = Strong<KmTag, double>;
using Meters = Strong<MetersTag, double>;
/// Simulation time: seconds since epoch start.
using Seconds = Strong<SecondsTag, double>;
/// Latencies, in milliseconds to match the paper's tables.
using Millis = Strong<MillisTag, double>;
using Radians = Strong<RadiansTag, double>;
using Degrees = Strong<DegreesTag, double>;
/// Link throughput. Table 1 quotes Gbps; convert via gbps()/to_gbps().
using BytesPerSec = Strong<BytesPerSecTag, double>;

inline constexpr Seconds kMinute{60.0};
inline constexpr Seconds kHour{3600.0};
inline constexpr Seconds kDay{86400.0};

// --- Physical constants -----------------------------------------------------
inline constexpr double kPi = std::numbers::pi;
inline constexpr double kTwoPi = 2.0 * kPi;
inline constexpr double kSpeedOfLightKmPerS = 299792.458;
inline constexpr Km kEarthRadius{6371.0};
inline constexpr double kEarthRadiusKm = kEarthRadius.value();
inline constexpr double kEarthMuKm3PerS2 = 398600.4418;  // gravitational param
inline constexpr Seconds kEarthSiderealDay{86164.0905};
inline constexpr double kEarthRotationRadPerS =
    kTwoPi / kEarthSiderealDay.value();

// --- Conversions (the only way across unit families) ------------------------
[[nodiscard]] constexpr Radians to_radians(Degrees d) noexcept {
  return Radians{d.value() * kPi / 180.0};
}
[[nodiscard]] constexpr Degrees to_degrees(Radians r) noexcept {
  return Degrees{r.value() * 180.0 / kPi};
}

[[nodiscard]] constexpr Meters to_meters(Km d) noexcept {
  return Meters{d.value() * 1000.0};
}
[[nodiscard]] constexpr Km to_km(Meters d) noexcept {
  return Km{d.value() / 1000.0};
}

[[nodiscard]] constexpr Millis to_millis(Seconds s) noexcept {
  return Millis{s.value() * 1000.0};
}
[[nodiscard]] constexpr Seconds to_seconds(Millis ms) noexcept {
  return Seconds{ms.value() / 1000.0};
}

/// One-way propagation delay over a straight-line distance.
[[nodiscard]] constexpr Millis propagation_delay(Km distance) noexcept {
  return Millis{distance.value() / kSpeedOfLightKmPerS * 1000.0};
}

[[nodiscard]] constexpr BytesPerSec gbps(double gigabits_per_s) noexcept {
  return BytesPerSec{gigabits_per_s * 1e9 / 8.0};
}
[[nodiscard]] constexpr double to_gbps(BytesPerSec r) noexcept {
  return r.value() * 8.0 / 1e9;
}

}  // namespace starcdn::util
