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
#include <numeric>
#include <span>
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

/// The decide bin of a request served at `serving`, from a per-slot table
/// of group % bins; bin 0 takes the requests with no serving satellite.
[[nodiscard]] inline std::uint32_t request_bin(
    util::SatId serving, std::span<const std::uint32_t> slot_bin) noexcept {
  return serving.value() < 0 ? 0 : slot_bin[util::as_index(serving)];
}

/// One block's request indices, stably sorted by decide bin: bin b's
/// requests ascend in order[start[b], start[b + 1]). Reused across blocks.
struct BinPartition {
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> start;

  /// Counting sort of the requests by their request_bin `key` (each below
  /// `bins`): one pass counts and one scatters.
  void sort(std::span<const std::uint32_t> key, std::size_t bins) {
    // Bin b is counted at b + 2, so after the prefix sum start[b + 1] is
    // bin b's start; the scatter walks it on to bin b + 1's start.
    start.assign(bins + 2, 0);
    for (const std::uint32_t b : key) ++start[b + 2];
    std::partial_sum(start.begin(), start.end(), start.begin());
    order.resize(key.size());
    for (std::uint32_t i = 0; const auto b : key) order[start[b + 1]++] = i++;
  }
  [[nodiscard]] std::span<const std::uint32_t> bin(std::size_t b) const {
    return {order.data() + start[b], order.data() + start[b + 1]};
  }
};

}  // namespace starcdn::core
