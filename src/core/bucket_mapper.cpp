#include "core/bucket_mapper.h"

#include <cmath>
#include <stdexcept>

#include "util/hash.h"

namespace starcdn::core {

namespace {

int wrap(int v, int n) noexcept {
  v %= n;
  return v < 0 ? v + n : v;
}

/// Minimal toroidal distance and its signed direction.
int toroidal_abs(int d, int n) noexcept {
  d = wrap(d, n);
  return std::min(d, n - d);
}

}  // namespace

BucketMapper::BucketMapper(const orbit::Constellation& constellation,
                           int buckets)
    : constellation_(&constellation), l_(buckets) {
  side_ = static_cast<int>(std::lround(std::sqrt(static_cast<double>(buckets))));
  if (side_ * side_ != buckets || buckets <= 0) {
    throw std::invalid_argument(
        "BucketMapper: bucket count must be a positive perfect square");
  }
  remap_cache_ =
      std::vector<std::atomic<int>>(static_cast<std::size_t>(constellation.size()));
  for (auto& entry : remap_cache_) entry.store(-2, std::memory_order_relaxed);
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
  const auto nearest = [&](int cur, int residue, int n) {
    // Candidate coordinates with the right residue on either side of `cur`.
    const int fwd = wrap(residue - cur, side_);        // 0..side-1 steps ahead
    const int back = side_ - fwd;                      // steps behind
    const int cand_fwd = wrap(cur + fwd, n);
    const int cand_back = wrap(cur - back, n);
    if (fwd == 0) return cand_fwd;
    return toroidal_abs(fwd, n) <= toroidal_abs(back, n) ? cand_fwd
                                                         : cand_back;
  };
  return orbit::grid_id(
      nearest(from.plane.value(), bp, constellation_->planes()),
      nearest(from.slot.value(), bs, constellation_->slots_per_plane()));
}

std::optional<orbit::SatelliteId> BucketMapper::remap(
    orbit::SatelliteId nominal) const {
  const auto& c = *constellation_;
  const util::SatId idx = c.index_of(nominal);
  std::atomic<int>& slot = remap_cache_[util::as_index(idx)];
  const int cached = slot.load(std::memory_order_relaxed);
  if (cached != -2) {
    if (cached == -1) return std::nullopt;
    return c.id_of(util::SatId{cached});
  }
  if (c.active(idx)) {
    slot.store(idx.value(), std::memory_order_relaxed);
    return nominal;
  }
  // Ring search by grid distance; deterministic scan order so every
  // requester resolves the same substitute (§3.4: "the next available
  // satellite").
  const int max_r = c.planes() / 2 + c.slots_per_plane() / 2;
  for (int r = 1; r <= max_r; ++r) {
    for (int dp = -r; dp <= r; ++dp) {
      const int rem = r - std::abs(dp);
      for (const int ds : rem == 0 ? std::vector<int>{0}
                                   : std::vector<int>{-rem, rem}) {
        const orbit::SatelliteId cand =
            orbit::grid_id(wrap(nominal.plane.value() + dp, c.planes()),
                           wrap(nominal.slot.value() + ds,
                                c.slots_per_plane()));
        const util::SatId cidx = c.index_of(cand);
        if (c.active(cidx)) {
          slot.store(cidx.value(), std::memory_order_relaxed);
          return cand;
        }
      }
    }
  }
  slot.store(-1, std::memory_order_relaxed);
  return std::nullopt;
}

std::optional<orbit::SatelliteId> BucketMapper::owner(
    orbit::SatelliteId from, util::BucketId bucket) const {
  return remap(nominal_owner(from, bucket));
}

std::optional<orbit::SatelliteId> BucketMapper::west_replica(
    orbit::SatelliteId owner_sat) const {
  // "West" in the paper's sense: the same-bucket neighbour that traced this
  // satellite's current ground track one drift interval earlier (Fig. 3) and
  // therefore holds the region's recent footprint. Ground tracks drift
  // westward relative to the planes, so the trailing neighbour is the one
  // `side_` planes in the +RAAN direction.
  const auto target = remap(constellation_->plane_offset(owner_sat, side_));
  if (target && !(*target == owner_sat)) return target;
  return std::nullopt;
}

std::optional<orbit::SatelliteId> BucketMapper::east_replica(
    orbit::SatelliteId owner_sat) const {
  const auto target =
      remap(constellation_->plane_offset(owner_sat, -side_));
  if (target && !(*target == owner_sat)) return target;
  return std::nullopt;
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
  const orbit::Constellation& c = *constellation_;
  std::vector<int> served(static_cast<std::size_t>(c.size()), 0);
  for (int i = 0; i < c.size(); ++i) {
    if (const auto target = remap(c.id_of(util::SatId{i}))) {
      ++served[util::as_index(c.index_of(*target))];
    }
  }
  return served;
}

}  // namespace starcdn::core
