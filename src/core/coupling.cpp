#include "core/coupling.h"

#include <algorithm>
#include <numeric>

#include "util/ids.h"

namespace starcdn::core {

RelayReplicas relay_replicas(const orbit::Constellation& constellation,
                             const BucketMapper& mapper, Variant v,
                             bool relay_east, orbit::SatelliteId serving) {
  RelayReplicas r;
  if (v == Variant::kStarCdn) {
    r.west = mapper.west_replica(serving);
    if (relay_east) r.east = mapper.east_replica(serving);
  } else if (v == Variant::kRelayOnly) {
    // Without hashing the replicas are the immediate inter-orbit
    // neighbours; "west" is the trailing (+RAAN) plane as for kStarCdn.
    const auto w = constellation.inter_east(serving);
    const auto e = constellation.inter_west(serving);
    if (constellation.active(constellation.index_of(w))) r.west = w;
    if (relay_east && constellation.active(constellation.index_of(e))) {
      r.east = e;
    }
  }
  return r;
}

CouplingGroups coupling_groups(const orbit::Constellation& constellation,
                               const BucketMapper& mapper, Variant v,
                               bool relay_east) {
  const auto n = static_cast<std::size_t>(constellation.size());
  std::vector<std::uint32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0U);
  const auto find = [&parent](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];  // path halving
      x = parent[x];
    }
    return x;
  };
  const auto unite = [&](std::size_t a,
                         const std::optional<orbit::SatelliteId>& b) {
    if (!b) return;
    const std::uint32_t ra = find(static_cast<std::uint32_t>(a));
    const std::uint32_t rb = find(static_cast<std::uint32_t>(
        util::as_index(constellation.index_of(*b))));
    if (ra != rb) parent[std::max(ra, rb)] = std::min(ra, rb);
  };
  // A hashed variant serves at the remapped bucket owner, which is always
  // active, so an out-of-slot satellite's edges never carry a request there;
  // skipping them keeps failure remap from coupling more than it must.
  const bool skip_inactive = hashes(v);
  for (std::size_t s = 0; s < n; ++s) {
    const util::SatId idx{static_cast<int>(s)};
    if (skip_inactive && !constellation.active(idx)) continue;
    const orbit::SatelliteId id = constellation.id_of(idx);
    const RelayReplicas r =
        relay_replicas(constellation, mapper, v, relay_east, id);
    unite(s, r.west);
    unite(s, r.east);
    if (v == Variant::kPrefetch) unite(s, mapper.west_replica(id));
  }

  CouplingGroups g;
  g.group_of.resize(n);
  std::vector<std::uint32_t> label(n, ~0U);
  for (std::size_t s = 0; s < n; ++s) {
    std::uint32_t& l = label[find(static_cast<std::uint32_t>(s))];
    if (l == ~0U) l = g.count++;
    g.group_of[s] = l;
  }
  return g;
}

}  // namespace starcdn::core
