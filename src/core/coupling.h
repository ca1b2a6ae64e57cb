// Reach tables and coupling groups: which satellite caches one variant's
// requests can touch together (DESIGN.md, "Sharded replay").
//
// A request served at slot s touches only s's cache and the caches in
// s's reach row: the relay west/east probes and the prefetch source. The
// replay reads those rows, and union-find over the same rows partitions
// the constellation into groups that never share a request, so closure
// holds by construction: the groups can replay concurrently while each
// cache still sees its operations in trace order. Failure remapping lands
// in the rows, so it couples groups automatically; a coarser partition
// costs parallelism, never correctness.
#pragma once

#include <cstdint>
#include <vector>

#include "core/bucket_mapper.h"
#include "core/variant.h"
#include "orbit/constellation.h"
#include "util/ids.h"

namespace starcdn::core {

/// The caches besides its own that a request served at one slot can reach;
/// kNoSat where there is none.
struct Reach {
  util::SatId west = util::kNoSat;  // relay probe, preferred on a hit
  util::SatId east = util::kNoSat;  // relay probe; only with relay_east
  util::SatId prefetch_from = util::kNoSat;  // west replica (spec.prefetch)
};

/// One Reach row per satellite slot (linear index) for `spec`:
///   - Relay::kReplicas: BucketMapper::west_replica / east_replica;
///   - Relay::kNeighbours: Constellation::inter_east / inter_west, each only
///     when active;
///   - spec.prefetch: prefetch_from is BucketMapper::west_replica.
/// `east` stays empty unless `relay_east` is set. A hashed variant serves
/// only at (remapped, hence active) bucket owners, so its inactive rows
/// stay empty.
[[nodiscard]] std::vector<Reach> reach_table(
    const orbit::Constellation& constellation, const BucketMapper& mapper,
    const VariantSpec& spec, bool relay_east);

/// Dense coupling-group labels, one per satellite slot (linear index).
struct CouplingGroups {
  std::vector<std::uint32_t> group_of;
  std::uint32_t count = 0;
};

/// Union-find over every row's edges. A table with no edges (Static,
/// VanillaLRU, StarCDN-Fetch) leaves every slot its own group. Labels
/// follow the first slot of each group in index order.
[[nodiscard]] CouplingGroups coupling_groups(const std::vector<Reach>& reach);

}  // namespace starcdn::core
