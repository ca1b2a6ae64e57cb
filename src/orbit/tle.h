// Two-Line Element (TLE) set parsing.
//
// The paper builds its constellation from CelesTrak TLEs for the
// Starlink-53 Gen-1 shell. We support the same ingestion path: parse TLE
// pairs (with checksum validation) and reduce them to the circular element
// model used by the propagator. For offline runs the Walker generator in
// constellation.h produces an equivalent element set directly.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "orbit/elements.h"

namespace starcdn::orbit {

struct Tle {
  std::string name;          // line 0, may be empty
  int catalog_number = 0;    // NORAD id
  double inclination_deg = 0.0;
  double raan_deg = 0.0;
  double eccentricity = 0.0;
  double arg_perigee_deg = 0.0;
  double mean_anomaly_deg = 0.0;
  double mean_motion_rev_day = 0.0;

  /// Reduce to the circular model: a from mean motion, u0 = w + M0.
  [[nodiscard]] CircularElements to_circular() const noexcept;
};

/// Modulo-10 TLE checksum over the first 68 characters of a line.
[[nodiscard]] int tle_checksum(std::string_view line) noexcept;

/// Parse a two-line pair (optionally preceded by a name line elsewhere).
/// Returns std::nullopt on malformed input or checksum failure.
[[nodiscard]] std::optional<Tle> parse_tle(std::string_view line1,
                                           std::string_view line2,
                                           std::string_view name = {});

/// Parse a whole 3LE/2LE text blob into element sets; malformed entries are
/// skipped (CelesTrak feeds occasionally contain truncated records).
[[nodiscard]] std::vector<Tle> parse_tle_file(std::string_view text);

/// Serialize to canonical two-line form (with valid checksums); used by the
/// round-trip tests and by SpaceGEN's scenario export.
[[nodiscard]] std::string format_tle(const Tle& t);

}  // namespace starcdn::orbit
