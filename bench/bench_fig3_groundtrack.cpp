// Fig. 3 / Fig. 5b: ground tracks of neighbouring satellites and the ISL
// grid. Demonstrates the key geometric fact behind relayed fetch: a
// satellite's trailing inter-orbit neighbour traces (nearly) the same
// ground path one drift interval earlier.
#include "bench_common.h"

#include "orbit/propagator.h"

int main(int argc, char** argv) {
  using namespace starcdn;
  bench::Harness harness(
      argc, argv, "Fig. 3 / 5b — ground tracks & ISL grid",
      "Fig. 3 and Fig. 5b, Sections 3.1/3.3");

  const orbit::Constellation shell{orbit::WalkerParams{}};
  const orbit::SatelliteId red{10, 0};
  const orbit::SatelliteId green{13, 0};  // three planes away (paper setup)

  // Sample both tracks over one orbital period.
  const double period = orbit::orbital_period(shell.elements(red)).value();
  util::TextTable table({"t(min)", "red lat", "red lon", "green lat",
                         "green lon"});
  for (double t = 0.0; t <= period; t += period / 12.0) {
    const auto r = orbit::ecef_to_geodetic(shell.position_ecef(red, util::Seconds{t}));
    const auto g = orbit::ecef_to_geodetic(shell.position_ecef(green, util::Seconds{t}));
    table.add_row({util::fmt(t / 60.0, 1), util::fmt(r.lat_deg, 1),
                   util::fmt(r.lon_deg, 1), util::fmt(g.lat_deg, 1),
                   util::fmt(g.lon_deg, 1)});
  }
  table.print(std::cout, "Ground tracks over one period");
  table.write_csv(harness.out_dir() + "/fig3_groundtrack.csv");

  // Quantify the Fig. 3 claim: the trailing neighbour's track now is close
  // to where this satellite's track will be one drift interval later.
  double best_offset = 0.0, best_err = 1e18;
  constexpr int kSamples = 24;
  for (double dt = 15.0; dt <= 2.0 * 3'600.0; dt += 15.0) {
    double err = 0.0;
    for (int k = 0; k < kSamples; ++k) {
      const double t = period * k / kSamples;
      const auto a = orbit::ecef_to_geodetic(shell.position_ecef(red, util::Seconds{t + dt}));
      const auto b = orbit::ecef_to_geodetic(shell.position_ecef(green, util::Seconds{t}));
      err += util::haversine(a, b).value();
    }
    err /= kSamples;
    if (err < best_err) {
      best_err = err;
      best_offset = dt;
    }
  }
  std::printf(
      "\nTrack alignment: satellite (p=%d) revisits neighbour (p=%d)'s\n"
      "path after %.1f min (mean track separation %.0f km — inside the\n"
      "~1,000 km footprint radius, so the neighbour's cache holds this\n"
      "region's recent requests).\n"
      "Paper claim (Fig. 3): the trailing neighbour traveled this path in\n"
      "the previous drift interval -> relayed fetch exploits its cache.\n",
      red.plane.value(), green.plane.value(), best_offset / 60.0, best_err);

  // Fig. 5b: the +grid ISL structure.
  const orbit::IslCounts isls = shell.isl_counts();
  std::printf(
      "\nISL grid: %d satellites, %d ISLs (%d intra-orbit + %d inter-orbit "
      "per satellite), %d broken.\n",
      shell.size(), isls.established, 2, 2, isls.broken);
  return 0;
}
