// Variants as data: the spec table pins the paper's taxonomy, and the
// per-slot reach table is what makes sharded replay exact, since a
// request's cache operations must stay inside its serving satellite's
// coupling group. The reach table is checked against an independent
// computation from the mapper and the constellation, on a healthy grid
// and after random failures, and the groups are checked for closure over
// it. The decide stage's per-block partition is checked against the bin
// rule it stands for.
#include "core/coupling.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
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

TEST(BinPartition, EveryRequestOnceInItsServingGroupsBin) {
  // StarCDN on the healthy shell at L = 9 couples slots into 54 groups;
  // a tenth of the requests have no serving satellite. One partition is
  // rebuilt for every bin count and block length, as the produce stage
  // reuses it block after block.
  const orbit::Constellation shell{orbit::WalkerParams{}};
  const BucketMapper mapper(shell, 9);
  const CouplingGroups g = coupling_groups(
      reach_table(shell, mapper, variant_spec(Variant::kStarCdn), true));
  ASSERT_GT(g.count, 8U);
  util::Rng rng(5);
  BinPartition part;
  for (const std::size_t bins : {2, 3, 4, 7}) {
    for (const std::size_t n : {0, 1, 4'096, 9'999}) {
      SCOPED_TRACE("bins=" + std::to_string(bins) + " n=" + std::to_string(n));
      std::vector<util::SatId> serving(n);
      for (util::SatId& s : serving) {
        s = rng.bernoulli(0.1) ? util::kNoSat
                               : util::SatId{static_cast<int>(
                                     rng.below(g.group_of.size()))};
      }
      std::vector<std::uint32_t> slot_bin(g.group_of.size());
      for (std::size_t s = 0; s < slot_bin.size(); ++s) {
        slot_bin[s] = g.group_of[s] % static_cast<std::uint32_t>(bins);
      }
      std::vector<std::uint32_t> key(n);
      for (std::size_t i = 0; i < n; ++i) {
        key[i] = request_bin(serving[i], slot_bin);
      }
      part.sort(key, bins);
      ASSERT_GE(part.start.size(), bins + 1);
      ASSERT_EQ(part.start[bins], n);
      std::vector<int> seen(n, 0);
      for (std::size_t b = 0; b < bins; ++b) {
        const std::span<const std::uint32_t> in = part.bin(b);
        EXPECT_TRUE(std::is_sorted(in.begin(), in.end())) << "bin " << b;
        for (const std::uint32_t i : in) {
          ASSERT_LT(i, n);
          ++seen[i];
          const util::SatId s = serving[i];
          const std::size_t want =
              s == util::kNoSat ? 0 : g.group_of[util::as_index(s)] % bins;
          EXPECT_EQ(b, want) << "request " << i;
        }
      }
      EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
                static_cast<std::ptrdiff_t>(n));
    }
  }
}

}  // namespace
}  // namespace starcdn::core
