#include "core/bucket_mapper.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/hash.h"

namespace starcdn::core {

namespace {

int wrap(int v, int n) noexcept {
  v %= n;
  return v < 0 ? v + n : v;
}

/// Minimal toroidal distance.
int toroidal_abs(int d, int n) noexcept {
  d = wrap(d, n);
  return std::min(d, n - d);
}

/// First active slot on the Manhattan rings |dp| + |ds| = r around `at`, by
/// ascending r, then dp, -ds before +ds; kNoSat if no slot is active.
util::SatId nearest_active(const orbit::Constellation& c,
                           orbit::SatelliteId at) {
  const int max_r = c.planes() / 2 + c.slots_per_plane() / 2;
  for (int r = 1; r <= max_r; ++r) {
    for (int dp = -r; dp <= r; ++dp) {
      const int rem = r - std::abs(dp);
      for (int ds = -rem; ds <= rem; ds += std::max(2 * rem, 1)) {
        const util::SatId cand = c.index_of(
            orbit::grid_id(wrap(at.plane.value() + dp, c.planes()),
                           wrap(at.slot.value() + ds, c.slots_per_plane())));
        if (c.active(cand)) return cand;
      }
    }
  }
  return util::kNoSat;
}

}  // namespace

BucketMapper::BucketMapper(const orbit::Constellation& c, int buckets)
    : constellation_(&c), l_(buckets) {
  side_ = tile_side_of(buckets);
  if (side_ == 0) {
    throw std::invalid_argument(
        "BucketMapper: bucket count must be a positive perfect square");
  }
  if (side_ > std::min(c.planes(), c.slots_per_plane())) {
    throw std::invalid_argument("BucketMapper: L = " + std::to_string(buckets) +
                                " tiles wider than the " +
                                std::to_string(c.planes()) + "x" +
                                std::to_string(c.slots_per_plane()) + " shell");
  }
  for (util::SatId i{0}; i.value() < c.size(); ++i) {
    remap_.push_back(c.active(i) ? i : nearest_active(c, c.id_of(i)));
  }
  for (util::SatId i{0}; i.value() < c.size(); ++i) {
    const orbit::SatelliteId from = c.id_of(i);
    for (util::BucketId b{0}; b.value() < l_; ++b) {
      Route r{remap_[util::as_index(c.index_of(nominal_owner(from, b)))]};
      if (r.owner != util::kNoSat) {
        const auto [inter, intra] = hop_split(from, c.id_of(r.owner));
        r.inter = static_cast<std::uint16_t>(inter);
        r.intra = static_cast<std::uint16_t>(intra);
      }
      routes_.push_back(r);
    }
  }
}

int BucketMapper::tile_side_of(int buckets) noexcept {
  const long side = std::lround(std::sqrt(std::max(buckets, 0)));
  return buckets > 0 && side * side == buckets ? static_cast<int>(side) : 0;
}

util::BucketId BucketMapper::bucket_of_object(
    cache::ObjectId id) const noexcept {
  return util::BucketId{static_cast<std::int32_t>(
      util::splitmix64(id) % static_cast<std::uint64_t>(l_))};
}

util::BucketId BucketMapper::bucket_of_slot(
    orbit::SatelliteId id) const noexcept {
  return util::BucketId{(id.plane.value() % side_) * side_ +
                        (id.slot.value() % side_)};
}

orbit::SatelliteId BucketMapper::nominal_owner(
    orbit::SatelliteId from, util::BucketId bucket) const noexcept {
  const int bp = bucket.value() / side_;  // required plane residue (mod side)
  const int bs = bucket.value() % side_;  // required slot residue (mod side)
  // The coordinate with the right residue nearest `cur`: `fwd` steps ahead
  // or `back` steps behind, ahead on a tie.
  const auto nearest = [&](int cur, int residue, int n) {
    const int fwd = wrap(residue - cur, side_);  // 0..side-1
    const int back = side_ - fwd;
    return fwd == 0 || toroidal_abs(fwd, n) <= toroidal_abs(back, n)
               ? wrap(cur + fwd, n)
               : wrap(cur - back, n);
  };
  return orbit::grid_id(
      nearest(from.plane.value(), bp, constellation_->planes()),
      nearest(from.slot.value(), bs, constellation_->slots_per_plane()));
}

std::optional<orbit::SatelliteId> BucketMapper::west_replica(
    orbit::SatelliteId owner_sat) const {
  // "West" in the paper's sense: the same-bucket neighbour that traced this
  // satellite's current ground track one drift interval earlier (Fig. 3) and
  // therefore holds the region's recent footprint. Ground tracks drift
  // westward relative to the planes, so the trailing neighbour is the one
  // `side_` planes in the +RAAN direction.
  const auto target = remap(constellation_->plane_offset(owner_sat, side_));
  return target && !(*target == owner_sat) ? target : std::nullopt;
}

std::optional<orbit::SatelliteId> BucketMapper::east_replica(
    orbit::SatelliteId owner_sat) const {
  const auto target = remap(constellation_->plane_offset(owner_sat, -side_));
  return target && !(*target == owner_sat) ? target : std::nullopt;
}

std::pair<int, int> BucketMapper::hop_split(
    orbit::SatelliteId a, orbit::SatelliteId b) const noexcept {
  return {toroidal_abs(b.plane.value() - a.plane.value(),
                       constellation_->planes()),
          toroidal_abs(b.slot.value() - a.slot.value(),
                       constellation_->slots_per_plane())};
}

int BucketMapper::worst_case_hops() const noexcept { return 2 * (side_ / 2); }

std::vector<int> BucketMapper::buckets_served_per_satellite() const {
  // Count how many grid slots each active satellite inherits after failure
  // remapping; a healthy satellite serves exactly its own slot.
  std::vector<int> served(remap_.size(), 0);
  for (const util::SatId target : remap_) {
    if (target != util::kNoSat) ++served[util::as_index(target)];
  }
  return served;
}

}  // namespace starcdn::core
