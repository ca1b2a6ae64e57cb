// Variants as data: the spec table pins the paper's taxonomy, and the
// per-slot reach table is what makes sharded replay exact, since a
// request's cache operations must stay inside its serving satellite's
// coupling group. The reach table is checked against an independent
// computation from the mapper and the constellation, on a healthy grid
// and after random failures, and the groups are checked for closure over
// it.
#include "core/coupling.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.h"

namespace starcdn::core {
namespace {

constexpr Variant kAllVariants[] = {
    Variant::kStatic,    Variant::kVanillaLru, Variant::kHashOnly,
    Variant::kRelayOnly, Variant::kStarCdn,    Variant::kPrefetch};

TEST(VariantSpec, RowsMatchThePaperTaxonomy) {
  struct Row {
    Variant v;
    const char* name;
    bool frozen, hashed;
    Relay relay;
    bool prefetch;
  };
  const Row rows[] = {
      {Variant::kStatic, "StaticCache", true, false, Relay::kNone, false},
      {Variant::kVanillaLru, "VanillaLRU", false, false, Relay::kNone, false},
      {Variant::kHashOnly, "StarCDN-Fetch", false, true, Relay::kNone, false},
      {Variant::kRelayOnly, "StarCDN-Hashing", false, false,
       Relay::kNeighbours, false},
      {Variant::kStarCdn, "StarCDN", false, true, Relay::kReplicas, false},
      {Variant::kPrefetch, "StarCDN-Prefetch", false, true, Relay::kNone,
       true},
  };
  for (const Row& row : rows) {
    const VariantSpec& s = variant_spec(row.v);
    SCOPED_TRACE(row.name);
    EXPECT_STREQ(s.name, row.name);
    EXPECT_STREQ(to_string(row.v), row.name);
    EXPECT_EQ(s.frozen, row.frozen);
    EXPECT_EQ(s.hashed, row.hashed);
    EXPECT_EQ(s.relay, row.relay);
    EXPECT_EQ(s.prefetch, row.prefetch);
  }
}

/// The caches a request served at `s` can reach under `v`, worked out
/// from the mapper and the constellation rather than from the spec.
Reach expected_reach(const orbit::Constellation& shell,
                     const BucketMapper& mapper, Variant v, bool relay_east,
                     util::SatId s) {
  const auto sat = [&](const std::optional<orbit::SatelliteId>& id) {
    return id ? shell.index_of(*id) : util::kNoSat;
  };
  const bool hashed = v == Variant::kHashOnly || v == Variant::kStarCdn ||
                      v == Variant::kPrefetch;
  Reach r;
  // Hashed variants serve only at (remapped, hence active) bucket owners.
  if (hashed && !shell.active(s)) return r;
  const orbit::SatelliteId id = shell.id_of(s);
  if (v == Variant::kStarCdn) {
    r.west = sat(mapper.west_replica(id));
    if (relay_east) r.east = sat(mapper.east_replica(id));
  } else if (v == Variant::kRelayOnly) {
    // The trailing (+RAAN) plane is "west", as for the replicas.
    const util::SatId w = shell.index_of(shell.inter_east(id));
    const util::SatId e = shell.index_of(shell.inter_west(id));
    if (shell.active(w)) r.west = w;
    if (relay_east && shell.active(e)) r.east = e;
  } else if (v == Variant::kPrefetch) {
    r.prefetch_from = sat(mapper.west_replica(id));
  }
  return r;
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
          SCOPED_TRACE(std::string(to_string(v)) + " L=" + std::to_string(l) +
                       (east ? " east" : " west-only") +
                       " failed=" + std::to_string(failed));
          const std::vector<Reach> reach =
              reach_table(shell, mapper, variant_spec(v), east);
          ASSERT_EQ(reach.size(), static_cast<std::size_t>(shell.size()));
          const CouplingGroups g = coupling_groups(reach);
          ASSERT_EQ(g.group_of.size(), reach.size());
          ASSERT_GT(g.count, 0U);
          EXPECT_EQ(*std::max_element(g.group_of.begin(), g.group_of.end()) +
                        1,
                    g.count);
          for (int i = 0; i < shell.size(); ++i) {
            const util::SatId s{i};
            const Reach want = expected_reach(shell, mapper, v, east, s);
            const Reach& got = reach[util::as_index(s)];
            ASSERT_EQ(got.west, want.west) << "west of slot " << i;
            ASSERT_EQ(got.east, want.east) << "east of slot " << i;
            ASSERT_EQ(got.prefetch_from, want.prefetch_from)
                << "prefetch source of slot " << i;
            // Closure: every cache the slot can reach shares its group.
            const std::uint32_t own = g.group_of[util::as_index(s)];
            for (const util::SatId to : {want.west, want.east,
                                         want.prefetch_from}) {
              if (to == util::kNoSat) continue;
              ASSERT_EQ(g.group_of[util::as_index(to)], own)
                  << "slot " << i << " reaches " << to.value();
            }
          }
        }
      }
    }
  }
}

TEST(CouplingGroups, HealthyGridSplitsIntoManyGroups) {
  const orbit::Constellation shell{orbit::WalkerParams{}};
  const BucketMapper mapper(shell, 9);
  const auto count = [&](Variant v) {
    return coupling_groups(reach_table(shell, mapper, variant_spec(v), true))
        .count;
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
