#include "core/coupling.h"

#include <algorithm>
#include <numeric>
#include <optional>

namespace starcdn::core {

std::vector<Reach> reach_table(const orbit::Constellation& constellation,
                               const BucketMapper& mapper,
                               const VariantSpec& spec, bool relay_east) {
  const auto index = [&](const std::optional<orbit::SatelliteId>& id) {
    return id ? constellation.index_of(*id) : util::kNoSat;
  };
  std::vector<Reach> reach(static_cast<std::size_t>(constellation.size()));
  for (int i = 0; i < constellation.size(); ++i) {
    const util::SatId idx{i};
    if (spec.hashed && !constellation.active(idx)) continue;
    const orbit::SatelliteId id = constellation.id_of(idx);
    Reach& r = reach[util::as_index(idx)];
    switch (spec.relay) {
      case Relay::kNone:
        break;
      case Relay::kNeighbours: {
        // "west" is the trailing (+RAAN) plane, as for the replicas.
        const util::SatId w =
            constellation.index_of(constellation.inter_east(id));
        const util::SatId e =
            constellation.index_of(constellation.inter_west(id));
        if (constellation.active(w)) r.west = w;
        if (relay_east && constellation.active(e)) r.east = e;
        break;
      }
      case Relay::kReplicas:
        r.west = index(mapper.west_replica(id));
        if (relay_east) r.east = index(mapper.east_replica(id));
        break;
    }
    if (spec.prefetch) r.prefetch_from = index(mapper.west_replica(id));
  }
  return reach;
}

CouplingGroups coupling_groups(const std::vector<Reach>& reach) {
  const std::size_t n = reach.size();
  std::vector<std::uint32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0U);
  const auto find = [&parent](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];  // path halving
      x = parent[x];
    }
    return x;
  };
  const auto unite = [&](std::size_t a, util::SatId b) {
    if (b == util::kNoSat) return;
    const std::uint32_t ra = find(static_cast<std::uint32_t>(a));
    const std::uint32_t rb = find(static_cast<std::uint32_t>(b.value()));
    if (ra != rb) parent[std::max(ra, rb)] = std::min(ra, rb);
  };
  for (std::size_t s = 0; s < n; ++s) {
    unite(s, reach[s].west);
    unite(s, reach[s].east);
    unite(s, reach[s].prefetch_from);
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
