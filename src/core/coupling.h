// Coupling groups: the closed sets of satellite caches that one variant's
// requests can reach together (DESIGN.md, "Sharded replay").
//
// A request's cache operations stay inside {serving, relay replicas,
// prefetch source} of its serving satellite. Union-find over those edges,
// for every satellite slot, partitions the constellation into groups that
// never share a request, so the groups can replay concurrently while each
// cache still sees its operations in trace order. The edges come from the
// same functions the replay calls (relay_replicas, BucketMapper::
// west_replica), so failure remapping couples groups automatically; a
// coarser partition costs parallelism, never correctness.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/bucket_mapper.h"
#include "core/variant.h"
#include "orbit/constellation.h"

namespace starcdn::core {

/// The replicas a variant probes when `serving` misses (§3.3): the
/// same-bucket west/east replicas for kStarCdn, the active inter-orbit
/// neighbours for kRelayOnly (the trailing +RAAN plane is "west"), none for
/// the other variants. `east` is empty unless `relay_east` is set.
struct RelayReplicas {
  std::optional<orbit::SatelliteId> west;
  std::optional<orbit::SatelliteId> east;
};
[[nodiscard]] RelayReplicas relay_replicas(
    const orbit::Constellation& constellation, const BucketMapper& mapper,
    Variant v, bool relay_east, orbit::SatelliteId serving);

/// Whether a variant serves at the bucket owner of consistent hashing
/// (kHashOnly, kStarCdn, kPrefetch).
[[nodiscard]] constexpr bool hashes(Variant v) noexcept {
  return v == Variant::kHashOnly || v == Variant::kStarCdn ||
         v == Variant::kPrefetch;
}

/// Whether a variant relays on an owner miss (kRelayOnly, kStarCdn).
[[nodiscard]] constexpr bool relays(Variant v) noexcept {
  return v == Variant::kRelayOnly || v == Variant::kStarCdn;
}

/// Dense coupling-group labels, one per satellite slot (linear index).
struct CouplingGroups {
  std::vector<std::uint32_t> group_of;
  std::uint32_t count = 0;
};

/// Coupling groups of `v`: union-find over each slot's relay replicas
/// (relay_replicas) and, for kPrefetch, its prefetch source (the west
/// replica). kStatic, kVanillaLru and kHashOnly touch only the serving cache,
/// so every slot is its own group. Hashed variants serve only at active
/// slots, so an inactive slot adds no edges for them. Labels follow the
/// first slot of each group in index order.
[[nodiscard]] CouplingGroups coupling_groups(
    const orbit::Constellation& constellation, const BucketMapper& mapper,
    Variant v, bool relay_east);

}  // namespace starcdn::core
