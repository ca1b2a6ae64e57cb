// End-to-end request latency composition (§5.3, Fig. 10).
//
// We model idle (propagation-dominated) latency, matching the paper's
// comparison against the Cloudflare AIM idle-latency dataset. A request's
// latency is assembled from:
//   * the user<->first-contact GSL (geometry-derived),
//   * ISL hops to the bucket owner and, on relay, to the neighbour replica,
//   * on a total miss, the satellite->ground-station GSL plus a terrestrial
//     leg to the origin,
// plus analytic baselines for terrestrial-CDN users and bent-pipe Starlink
// users served by a terrestrial CDN (the "regular Starlink" curve).
//
// Every latency is a strong util::Millis; the lognormal leg parameters are
// dimensionless (mu/sigma of the underlying normal) and stay raw.
#pragma once

#include "util/rng.h"
#include "util/units.h"

namespace starcdn::net {

struct LatencyModelParams {
  // Fallback GSL one-way delay when no geometric range is available; the
  // mean measured in Table 1.
  util::Millis default_gsl{2.94};
  // One-way ISL hop delays (Table 1 means) used when a caller reasons in
  // hop counts instead of geometric paths.
  util::Millis inter_orbit_hop{2.15};
  util::Millis intra_orbit_hop{8.03};
  // Terrestrial leg from a ground station through an IXP to the origin
  // (cache-miss penalty): lognormal, median ~ exp(mu) ms.
  double origin_leg_mu = 3.4;     // median ≈ 30 ms
  double origin_leg_sigma = 0.45;
  // Terrestrial CDN baseline: last mile + proximal edge server.
  double terrestrial_mu = 2.2;    // median ≈ 9 ms
  double terrestrial_sigma = 0.55;
  // Bent-pipe extra terrestrial leg (GS -> IXP -> far CDN edge); combined
  // with two GSL traversals this reproduces the ~55 ms Starlink median.
  double bentpipe_leg_mu = 3.9;   // median ≈ 49 ms
  double bentpipe_leg_sigma = 0.35;
};

class LatencyModel {
 public:
  explicit LatencyModel(const LatencyModelParams& p = {}) noexcept : p_(p) {}

  [[nodiscard]] const LatencyModelParams& params() const noexcept { return p_; }

  /// One-way delay of `h` bucket-routing hops along the grid; routing
  /// prefers inter-orbit hops (§3.2 maps buckets so the path is short).
  [[nodiscard]] util::Millis grid_hops_delay(int inter_hops,
                                             int intra_hops) const noexcept {
    return inter_hops * p_.inter_orbit_hop + intra_hops * p_.intra_orbit_hop;
  }

  /// Served from the first-contact satellite's cache.
  [[nodiscard]] util::Millis hit_local(util::Millis gsl) const noexcept {
    return 2.0 * gsl;
  }

  /// Served from the bucket owner `route` (one-way) away.
  [[nodiscard]] util::Millis hit_routed(util::Millis gsl,
                                        util::Millis route) const noexcept {
    return 2.0 * (gsl + route);
  }

  /// Served via relayed fetch: request travels user -> first contact ->
  /// owner -> replica and the object returns along the same path.
  [[nodiscard]] util::Millis hit_relayed(util::Millis gsl, util::Millis route,
                                         util::Millis relay) const noexcept {
    return 2.0 * (gsl + route + relay);
  }

  /// Total miss: object fetched from the ground through the owner's GSL and
  /// a sampled terrestrial origin leg, then forwarded to the user.
  [[nodiscard]] util::Millis miss(util::Millis gsl, util::Millis route,
                                  util::Millis gs_gsl,
                                  util::Rng::NormalDraw d) const noexcept {
    return 2.0 * (gsl + route + gs_gsl) +
           util::Millis{util::Rng::lognormal_of(d, p_.origin_leg_mu,
                                                p_.origin_leg_sigma)};
  }
  [[nodiscard]] util::Millis miss(util::Millis gsl, util::Millis route,
                                  util::Millis gs_gsl,
                                  util::Rng& rng) const noexcept {
    return miss(gsl, route, gs_gsl, rng.normal_draw());
  }

  /// Baseline: terrestrial user hitting a proximal terrestrial CDN edge.
  [[nodiscard]] util::Millis terrestrial_cdn(
      util::Rng::NormalDraw d) const noexcept {
    return util::Millis{util::Rng::lognormal_of(d, p_.terrestrial_mu,
                                                p_.terrestrial_sigma)};
  }

  /// Baseline: Starlink bent pipe to a terrestrial CDN (no space cache);
  /// two GSL traversals (up, down) plus the far terrestrial leg.
  [[nodiscard]] util::Millis bentpipe_starlink(
      util::Millis gsl, util::Rng::NormalDraw d) const noexcept {
    return 2.0 * gsl + util::Millis{util::Rng::lognormal_of(
                           d, p_.bentpipe_leg_mu, p_.bentpipe_leg_sigma)};
  }

 private:
  LatencyModelParams p_;
};

}  // namespace starcdn::net
