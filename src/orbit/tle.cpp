#include "orbit/tle.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/geo.h"
#include "util/units.h"

namespace starcdn::orbit {

namespace {

/// Parse a fixed-width substring as double; returns NaN on failure.
double field(std::string_view line, std::size_t pos, std::size_t len) {
  if (pos + len > line.size()) return std::nan("");
  const std::string s{line.substr(pos, len)};
  try {
    std::size_t used = 0;
    const double v = std::stod(s, &used);
    (void)used;
    return v;
  } catch (...) {
    return std::nan("");
  }
}

}  // namespace

CircularElements Tle::to_circular() const noexcept {
  using util::Degrees;
  CircularElements e;
  // a^3 = mu / n^2 with n in rad/s.
  const double n_rad_s = mean_motion_rev_day * 2.0 * M_PI / util::kDay.value();
  e.semi_major_axis =
      util::Km{std::cbrt(util::kEarthMuKm3PerS2 / (n_rad_s * n_rad_s))};
  e.inclination = util::to_radians(Degrees{inclination_deg});
  e.raan = util::to_radians(Degrees{raan_deg});
  e.arg_latitude_epoch = util::to_radians(
      Degrees{std::fmod(arg_perigee_deg + mean_anomaly_deg, 360.0)});
  return e;
}

int tle_checksum(std::string_view line) noexcept {
  int sum = 0;
  const std::size_t n = std::min<std::size_t>(line.size(), 68);
  for (std::size_t i = 0; i < n; ++i) {
    const char c = line[i];
    if (c >= '0' && c <= '9') sum += c - '0';
    if (c == '-') sum += 1;
  }
  return sum % 10;
}

std::optional<Tle> parse_tle(std::string_view line1, std::string_view line2,
                             std::string_view name) {
  if (line1.size() < 69 || line2.size() < 69) return std::nullopt;
  if (line1[0] != '1' || line2[0] != '2') return std::nullopt;
  if (tle_checksum(line1) != line1[68] - '0') return std::nullopt;
  if (tle_checksum(line2) != line2[68] - '0') return std::nullopt;

  Tle t;
  t.name = std::string(name);
  t.catalog_number = static_cast<int>(field(line2, 2, 5));
  t.inclination_deg = field(line2, 8, 8);
  t.raan_deg = field(line2, 17, 8);
  // Eccentricity field has an implied leading decimal point.
  t.eccentricity = field(line2, 26, 7) * 1e-7;
  t.arg_perigee_deg = field(line2, 34, 8);
  t.mean_anomaly_deg = field(line2, 43, 8);
  t.mean_motion_rev_day = field(line2, 52, 11);
  if (std::isnan(t.inclination_deg) || std::isnan(t.raan_deg) ||
      std::isnan(t.mean_motion_rev_day) || t.mean_motion_rev_day <= 0.0) {
    return std::nullopt;
  }
  return t;
}

std::vector<Tle> parse_tle_file(std::string_view text) {
  std::vector<Tle> out;
  std::vector<std::string> lines;
  {
    std::istringstream in{std::string(text)};
    std::string line;
    while (std::getline(in, line)) {
      while (!line.empty() && (line.back() == '\r' || line.back() == '\n')) {
        line.pop_back();
      }
      if (!line.empty()) lines.push_back(line);
    }
  }
  std::string pending_name;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& l = lines[i];
    if (l[0] == '1' && i + 1 < lines.size() && lines[i + 1][0] == '2') {
      if (auto t = parse_tle(l, lines[i + 1], pending_name)) {
        out.push_back(std::move(*t));
      }
      pending_name.clear();
      ++i;
    } else if (l[0] != '1' && l[0] != '2') {
      pending_name = l;
      // Strip trailing spaces of the name line.
      while (!pending_name.empty() && pending_name.back() == ' ') {
        pending_name.pop_back();
      }
    }
  }
  return out;
}

std::string format_tle(const Tle& t) {
  char l1[80], l2[80];
  std::snprintf(l1, sizeof l1,
                "1 %05dU 20001A   24001.00000000  .00000000  00000-0  00000-0 "
                "0  999",
                t.catalog_number);
  std::snprintf(l2, sizeof l2,
                "2 %05d %8.4f %8.4f %07d %8.4f %8.4f %11.8f    1",
                t.catalog_number, t.inclination_deg, t.raan_deg,
                static_cast<int>(std::llround(t.eccentricity * 1e7)),
                t.arg_perigee_deg, t.mean_anomaly_deg, t.mean_motion_rev_day);
  std::string s1{l1}, s2{l2};
  s1 += static_cast<char>('0' + tle_checksum(s1));
  s2 += static_cast<char>('0' + tle_checksum(s2));
  std::string out;
  if (!t.name.empty()) out += t.name + "\n";
  out += s1 + "\n" + s2 + "\n";
  return out;
}

}  // namespace starcdn::orbit
