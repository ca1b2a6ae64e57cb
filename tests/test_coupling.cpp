// Coupling groups are what make sharded replay exact: a request's cache
// operations must stay inside its serving satellite's group. These tests
// check the closure property directly against the functions the replay
// calls, on a healthy grid and after random failures.
#include "core/coupling.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/rng.h"

namespace starcdn::core {
namespace {

constexpr Variant kAllVariants[] = {
    Variant::kStatic,    Variant::kVanillaLru, Variant::kHashOnly,
    Variant::kRelayOnly, Variant::kStarCdn,    Variant::kPrefetch};

/// Every cache a request served at `s` can reach shares s's group.
void expect_closed(const orbit::Constellation& shell,
                   const BucketMapper& mapper, Variant v, bool relay_east) {
  SCOPED_TRACE(std::string(to_string(v)) + " L=" +
               std::to_string(mapper.buckets()) +
               (relay_east ? " east" : " west-only"));
  const CouplingGroups g = coupling_groups(shell, mapper, v, relay_east);
  ASSERT_EQ(g.group_of.size(), static_cast<std::size_t>(shell.size()));
  ASSERT_GT(g.count, 0U);
  EXPECT_EQ(*std::max_element(g.group_of.begin(), g.group_of.end()) + 1,
            g.count);
  const auto group = [&](const orbit::SatelliteId& id) {
    return g.group_of[util::as_index(shell.index_of(id))];
  };
  for (int i = 0; i < shell.size(); ++i) {
    const util::SatId idx{i};
    // Hashed variants serve only at (remapped, hence active) bucket owners.
    if (hashes(v) && !shell.active(idx)) continue;
    const orbit::SatelliteId s = shell.id_of(idx);
    const std::uint32_t own = g.group_of[util::as_index(idx)];
    const RelayReplicas r = relay_replicas(shell, mapper, v, relay_east, s);
    if (r.west) {
      ASSERT_EQ(group(*r.west), own) << "west relay of slot " << i;
    }
    if (r.east) {
      ASSERT_EQ(group(*r.east), own) << "east relay of slot " << i;
    }
    if (v == Variant::kPrefetch) {
      if (const auto src = mapper.west_replica(s)) {
        ASSERT_EQ(group(*src), own) << "prefetch source of slot " << i;
      }
    }
  }
}

TEST(CouplingGroups, RelayAndPrefetchNeighboursShareTheGroup) {
  for (const double failed : {0.0, 0.1}) {
    orbit::Constellation shell{orbit::WalkerParams{}};
    if (failed > 0.0) {
      util::Rng rng(11);
      shell.knock_out_random(failed, rng);
    }
    for (const int l : {4, 9}) {
      const BucketMapper mapper(shell, l);
      for (const Variant v : kAllVariants) {
        for (const bool east : {true, false}) {
          expect_closed(shell, mapper, v, east);
        }
      }
    }
  }
}

TEST(CouplingGroups, HealthyGridSplitsIntoManyGroups) {
  const orbit::Constellation shell{orbit::WalkerParams{}};
  const BucketMapper mapper(shell, 9);
  const auto count = [&](Variant v) {
    return coupling_groups(shell, mapper, v, true).count;
  };
  EXPECT_GE(count(Variant::kStarCdn), 9U);
  EXPECT_GE(count(Variant::kPrefetch), 9U);
  EXPECT_GE(count(Variant::kRelayOnly), 2U);
  // Variants without relay or prefetch touch only the serving cache.
  const auto slots = static_cast<std::uint32_t>(shell.size());
  EXPECT_EQ(count(Variant::kStatic), slots);
  EXPECT_EQ(count(Variant::kVanillaLru), slots);
  EXPECT_EQ(count(Variant::kHashOnly), slots);
}

}  // namespace
}  // namespace starcdn::core
