// StarCDN's LSN-specific consistent hashing (§3.2) and its relayed-fetch
// replica geometry (§3.3) plus failure remapping (§3.4).
//
// Objects hash into L buckets; buckets tile the (plane, slot) grid in a
// repeating sqrt(L) x sqrt(L) pattern, so any bucket is reachable from any
// first-contact satellite within 2*floor(sqrt(L)/2) grid hops. Same-bucket
// replicas sit sqrt(L) planes to the west/east — the neighbours relayed
// fetch probes on a miss, exploiting that a satellite's west inter-orbit
// neighbour traces (almost) the requester's ground track one period
// earlier (Fig. 3). When the nominal owner of a bucket is out of slot, the
// bucket remaps to the nearest active satellite, which then serves
// multiple buckets (§3.4, evaluated in Fig. 11). All of it is a function of
// the shell and L, so the constructor resolves it into tables that later
// calls only read; the shell must not change while the mapper lives.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "cache/cache.h"
#include "orbit/constellation.h"
#include "util/ids.h"

namespace starcdn::core {

class BucketMapper {
 public:
  /// A bucket's owner after remapping (kNoSat if every slot is down) and
  /// the (inter, intra) hop split to it from the first-contact slot.
  struct Route {
    util::SatId owner = util::kNoSat;
    std::uint16_t inter = 0, intra = 0;
  };

  /// `buckets` must be a perfect square (the paper uses L = 4 and L = 9) with
  /// sqrt(L) <= min(planes, slots per plane); else std::invalid_argument.
  BucketMapper(const orbit::Constellation& constellation, int buckets);

  /// sqrt(L) if L is a positive perfect square, else 0.
  [[nodiscard]] static int tile_side_of(int buckets) noexcept;

  [[nodiscard]] int buckets() const noexcept { return l_; }
  [[nodiscard]] int tile_side() const noexcept { return side_; }

  /// Bucket an object hashes into (splitmix-mixed, uniform over L).
  [[nodiscard]] util::BucketId bucket_of_object(
      cache::ObjectId id) const noexcept;

  /// Bucket assigned to a satellite slot by the grid tiling.
  [[nodiscard]] util::BucketId bucket_of_slot(
      orbit::SatelliteId id) const noexcept;

  /// Nominal owner of `bucket` nearest to `from` on the torus — ignores
  /// failures. Reachable within 2*floor(side/2) hops by construction.
  [[nodiscard]] orbit::SatelliteId nominal_owner(
      orbit::SatelliteId from, util::BucketId bucket) const noexcept;

  /// Route of `bucket` from any first-contact slot: one table read.
  [[nodiscard]] Route route(util::SatId from,
                            util::BucketId bucket) const noexcept {
    return routes_[util::as_index(from) * static_cast<std::size_t>(l_) +
                   util::as_index(bucket)];
  }

  /// remap(nominal_owner(from, bucket)); `from` must be a slot of the shell.
  [[nodiscard]] std::optional<orbit::SatelliteId> owner(
      orbit::SatelliteId from, util::BucketId bucket) const {
    return sat(route(constellation_->index_of(from), bucket).owner);
  }

  /// Same-bucket replicas for relayed fetch: `side_` planes west / east of
  /// `owner_sat` (remapped if inactive). Never returns `owner_sat` itself.
  [[nodiscard]] std::optional<orbit::SatelliteId> west_replica(
      orbit::SatelliteId owner_sat) const;
  [[nodiscard]] std::optional<orbit::SatelliteId> east_replica(
      orbit::SatelliteId owner_sat) const;

  /// Toroidal (inter, intra) hop split between two slots; used by the
  /// latency model (inter- and intra-orbit hops cost differently).
  [[nodiscard]] std::pair<int, int> hop_split(orbit::SatelliteId a,
                                              orbit::SatelliteId b) const noexcept;

  /// Worst-case routing hop count from any satellite to any bucket:
  /// 2 * floor(side/2) on a healthy grid (Fig. 9's x-axis relation).
  [[nodiscard]] int worst_case_hops() const noexcept;

  /// Remap target of any slot: itself if active, else the first active slot
  /// of a fixed Manhattan-ring scan, so all requesters agree on it (§3.4:
  /// "the next available satellite"). Nullopt if no slot is active.
  [[nodiscard]] std::optional<orbit::SatelliteId> remap(
      orbit::SatelliteId nominal) const {
    return sat(remap_[util::as_index(constellation_->index_of(nominal))]);
  }

  /// Number of grid slots each active satellite serves after failure
  /// remapping (1 on a healthy grid), by linear satellite index; Fig. 11's
  /// x-axis.
  [[nodiscard]] std::vector<int> buckets_served_per_satellite() const;

 private:
  [[nodiscard]] std::optional<orbit::SatelliteId> sat(util::SatId idx) const {
    if (idx == util::kNoSat) return std::nullopt;
    return constellation_->id_of(idx);
  }

  const orbit::Constellation* constellation_;
  int l_;
  int side_;
  std::vector<util::SatId> remap_;  // per slot: remap target or kNoSat
  std::vector<Route> routes_;       // per (first-contact slot, bucket)
};
static_assert(sizeof(BucketMapper::Route) <= 8);

}  // namespace starcdn::core
