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
// multiple buckets (§3.4, evaluated in Fig. 11).
#pragma once

#include <atomic>
#include <optional>
#include <utility>
#include <vector>

#include "cache/cache.h"
#include "orbit/constellation.h"
#include "util/ids.h"

namespace starcdn::core {

class BucketMapper {
 public:
  /// `buckets` must be a perfect square (the paper uses L = 4 and L = 9).
  BucketMapper(const orbit::Constellation& constellation, int buckets);

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

  /// Actual owner after failure remapping: the nominal owner if active,
  /// otherwise the nearest active satellite (deterministic ring search, a
  /// pure function of the nominal owner so all requesters agree). Returns
  /// nullopt only if the whole constellation is down.
  [[nodiscard]] std::optional<orbit::SatelliteId> owner(
      orbit::SatelliteId from, util::BucketId bucket) const;

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

  /// Remap target for an arbitrary (possibly inactive) slot: the nearest
  /// active satellite by grid distance, deterministic tie-break. Exposed
  /// for the fault-tolerance experiments.
  [[nodiscard]] std::optional<orbit::SatelliteId> remap(
      orbit::SatelliteId nominal) const;

  /// Number of grid slots each active satellite serves after failure
  /// remapping (1 on a healthy grid), by linear satellite index; Fig. 11's
  /// x-axis.
  [[nodiscard]] std::vector<int> buckets_served_per_satellite() const;

 private:
  const orbit::Constellation* constellation_;
  int l_;
  int side_;
  // Memoized remap targets (linear index -> remapped index; -2 unknown,
  // -1 unreachable). The topology is fixed for the mapper's lifetime, so
  // entries never invalidate. Each entry is a relaxed atomic: the value is
  // a pure function of the topology, so concurrent fills (e.g. variant
  // threads in Simulator::run) can only ever race to write the same value.
  mutable std::vector<std::atomic<int>> remap_cache_;
};

}  // namespace starcdn::core
