#include "core/bucket_mapper.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>

#include "util/rng.h"

namespace starcdn::core {
namespace {

orbit::WalkerParams shell_params() {
  orbit::WalkerParams p;
  p.planes = 12;
  p.slots_per_plane = 6;
  return p;
}

TEST(BucketMapper, RejectsNonSquareBucketCounts) {
  const orbit::Constellation c{shell_params()};
  EXPECT_THROW(BucketMapper(c, 5), std::invalid_argument);
  EXPECT_THROW(BucketMapper(c, 0), std::invalid_argument);
  EXPECT_THROW(BucketMapper(c, -4), std::invalid_argument);
  EXPECT_NO_THROW(BucketMapper(c, 1));
  EXPECT_NO_THROW(BucketMapper(c, 4));
  EXPECT_NO_THROW(BucketMapper(c, 9));
  // The tile side sqrt(L) must fit the 12x6 shell.
  EXPECT_THROW(BucketMapper(c, 49), std::invalid_argument);
  EXPECT_NO_THROW(BucketMapper(c, 36));
}

TEST(BucketMapper, ObjectHashingUniform) {
  const orbit::Constellation c{shell_params()};
  const BucketMapper m(c, 4);
  int counts[4] = {};
  for (cache::ObjectId id = 0; id < 40'000; ++id) {
    const int b = m.bucket_of_object(id).value();
    ASSERT_GE(b, 0);
    ASSERT_LT(b, 4);
    ++counts[b];
  }
  for (const int n : counts) EXPECT_NEAR(n, 10'000, 500);
}

TEST(BucketMapper, SlotTilingPattern) {
  // Fig. 5a: each sqrt(L) x sqrt(L) tile holds all L distinct buckets.
  const orbit::Constellation c{shell_params()};
  const BucketMapper m(c, 4);
  for (int p = 0; p < c.planes(); p += 2) {
    for (int s = 0; s < c.slots_per_plane(); s += 2) {
      std::set<int> tile;
      for (int dp = 0; dp < 2; ++dp) {
        for (int ds = 0; ds < 2; ++ds) {
          tile.insert(m.bucket_of_slot({p + dp, s + ds}).value());
        }
      }
      EXPECT_EQ(tile.size(), 4u) << "tile at " << p << "," << s;
    }
  }
}

class BucketHopBoundTest : public ::testing::TestWithParam<int> {};

TEST_P(BucketHopBoundTest, EveryBucketWithinWorstCaseHops) {
  // §3.2: any bucket reachable within 2*floor(sqrt(L)/2) hops.
  const int L = GetParam();
  const orbit::Constellation c{shell_params()};
  const BucketMapper m(c, L);
  const int bound = m.worst_case_hops();
  for (int p = 0; p < c.planes(); ++p) {
    for (int s = 0; s < c.slots_per_plane(); ++s) {
      const orbit::SatelliteId from{p, s};
      for (int b = 0; b < L; ++b) {
        const auto owner = m.nominal_owner(from, util::BucketId{b});
        EXPECT_EQ(m.bucket_of_slot(owner).value(), b)
            << "L=" << L << " from=" << p << "," << s << " bucket=" << b;
        EXPECT_LE(c.grid_hops(from, owner), bound);
      }
    }
  }
}

// L=4 and L=9 divide the 12x6 grid evenly (the Starlink-compatible values
// the paper uses, §3.2).
INSTANTIATE_TEST_SUITE_P(SquareCounts, BucketHopBoundTest,
                         ::testing::Values(1, 4, 9));

TEST(BucketMapper, WorstCaseHopsFormula) {
  const orbit::Constellation c{shell_params()};
  EXPECT_EQ(BucketMapper(c, 1).worst_case_hops(), 0);
  EXPECT_EQ(BucketMapper(c, 4).worst_case_hops(), 2);
  EXPECT_EQ(BucketMapper(c, 9).worst_case_hops(), 2);   // same as L=4 (§5.3)
  EXPECT_EQ(BucketMapper(c, 16).worst_case_hops(), 4);
  EXPECT_EQ(BucketMapper(c, 25).worst_case_hops(), 4);
}

TEST(BucketMapper, OwnerIsNominalWhenHealthy) {
  const orbit::Constellation c{shell_params()};
  const BucketMapper m(c, 4);
  const auto owner = m.owner({3, 3}, util::BucketId{2});
  ASSERT_TRUE(owner.has_value());
  EXPECT_EQ(*owner, m.nominal_owner({3, 3}, util::BucketId{2}));
}

TEST(BucketMapper, RemapPicksNearestActive) {
  orbit::Constellation c{shell_params()};
  c.set_active({2, 2}, false);
  const BucketMapper m(c, 4);
  const auto target = m.remap({2, 2});
  ASSERT_TRUE(target.has_value());
  EXPECT_TRUE(c.active(c.index_of(*target)));
  EXPECT_EQ(c.grid_hops({2, 2}, *target), 1);  // a direct neighbour is alive
}

TEST(BucketMapper, RemapIsDeterministicAcrossRequesters) {
  // §3.4: all requesters must agree on the substitute owner.
  orbit::Constellation c{shell_params()};
  util::Rng rng(3);
  c.knock_out_random(0.2, rng);
  const BucketMapper m(c, 9);
  for (int i = 0; i < c.size(); ++i) {
    const auto a = m.remap(c.id_of(util::SatId{i}));
    const auto b = m.remap(c.id_of(util::SatId{i}));
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a) {
      EXPECT_EQ(*a, *b);
    }
  }
}

TEST(BucketMapper, RemapOfActiveSatelliteIsIdentity) {
  const orbit::Constellation c{shell_params()};
  const BucketMapper m(c, 4);
  for (int i = 0; i < c.size(); ++i) {
    const auto t = m.remap(c.id_of(util::SatId{i}));
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(*t, c.id_of(util::SatId{i}));
  }
}

TEST(BucketMapper, AllDownYieldsNullopt) {
  orbit::Constellation c{shell_params()};
  for (int i = 0; i < c.size(); ++i) c.set_active(c.id_of(util::SatId{i}), false);
  const BucketMapper m(c, 4);
  EXPECT_FALSE(m.remap({0, 0}).has_value());
  EXPECT_FALSE(m.owner({0, 0}, util::BucketId{1}).has_value());
}

TEST(BucketMapper, ReplicasAreSameBucketAndDistinct) {
  const orbit::Constellation c{shell_params()};
  const BucketMapper m(c, 4);
  const orbit::SatelliteId owner{4, 2};
  const auto west = m.west_replica(owner);
  const auto east = m.east_replica(owner);
  ASSERT_TRUE(west && east);
  // Replicas sit sqrt(L) planes away: same bucket column (§3.3).
  EXPECT_EQ(m.bucket_of_slot(*west), m.bucket_of_slot(owner));
  EXPECT_EQ(m.bucket_of_slot(*east), m.bucket_of_slot(owner));
  EXPECT_FALSE(*west == owner);
  EXPECT_FALSE(*east == owner);
  // "West" = trailing (+RAAN) plane, "east" = leading (-RAAN) plane.
  EXPECT_EQ(west->plane.value(), 6);
  EXPECT_EQ(east->plane.value(), 2);
}

TEST(BucketMapper, ReplicaRemapsAroundFailure) {
  orbit::Constellation c{shell_params()};
  c.set_active({6, 2}, false);  // the nominal west replica of (4,2)
  const BucketMapper m(c, 4);
  const auto west = m.west_replica({4, 2});
  ASSERT_TRUE(west.has_value());
  EXPECT_TRUE(c.active(c.index_of(*west)));
  EXPECT_FALSE(*west == (orbit::SatelliteId{4, 2}));
}

TEST(BucketMapper, ReplicaNeverReturnsOwnerItself) {
  // Kill everything except one satellite: replicas must be nullopt, not
  // the owner.
  orbit::Constellation c{shell_params()};
  for (int i = 1; i < c.size(); ++i) c.set_active(c.id_of(util::SatId{i}), false);
  const BucketMapper m(c, 4);
  EXPECT_FALSE(m.west_replica({0, 0}).has_value());
  EXPECT_FALSE(m.east_replica({0, 0}).has_value());
}

TEST(BucketMapper, HopSplitToroidal) {
  const orbit::Constellation c{shell_params()};
  const BucketMapper m(c, 4);
  const auto [inter, intra] = m.hop_split({0, 0}, {11, 5});
  EXPECT_EQ(inter, 1);  // wraps
  EXPECT_EQ(intra, 1);  // wraps
  const auto [i2, a2] = m.hop_split({0, 0}, {6, 3});
  EXPECT_EQ(i2, 6);
  EXPECT_EQ(a2, 3);
}

// A plain reference for the mapper's tables, written from the model rather
// than the implementation: a Manhattan-ring scan in the same order, the
// nearest coordinate of each residue, and toroidal hop counts.
struct Reference {
  const orbit::Constellation& c;
  int side;

  static int wrap(int v, int n) { return ((v % n) + n) % n; }
  static int hops(int d, int n) { return std::min(wrap(d, n), wrap(-d, n)); }

  std::optional<orbit::SatelliteId> remap(orbit::SatelliteId at) const {
    if (c.active(at)) return at;
    for (int r = 1; r <= c.planes() / 2 + c.slots_per_plane() / 2; ++r) {
      for (int dp = -r; dp <= r; ++dp) {
        const int rem = r - std::abs(dp);
        for (const int ds : {-rem, rem}) {
          const orbit::SatelliteId cand =
              orbit::grid_id(wrap(at.plane.value() + dp, c.planes()),
                             wrap(at.slot.value() + ds, c.slots_per_plane()));
          if (c.active(cand)) return cand;
        }
      }
    }
    return std::nullopt;
  }

  // Nearest coordinate congruent to `residue` mod side; ahead on a tie.
  int nearest(int cur, int residue, int n) const {
    for (int d = 0;; ++d) {
      if (wrap(cur + d, n) % side == residue) return wrap(cur + d, n);
      if (wrap(cur - d, n) % side == residue) return wrap(cur - d, n);
    }
  }

  std::optional<orbit::SatelliteId> owner(orbit::SatelliteId from,
                                          int bucket) const {
    return remap(orbit::grid_id(
        nearest(from.plane.value(), bucket / side, c.planes()),
        nearest(from.slot.value(), bucket % side, c.slots_per_plane())));
  }

  std::optional<orbit::SatelliteId> replica(orbit::SatelliteId o,
                                            int dp) const {
    const auto t = remap(orbit::grid_id(wrap(o.plane.value() + dp, c.planes()),
                                        o.slot.value()));
    if (t && *t == o) return std::nullopt;
    return t;
  }
};

TEST(BucketMapper, RouteTableMatchesReference) {
  // The paper's 72x18 shell, healthy and with 9.7% (§5.4) and 35% of its
  // slots out; L = 4 and L = 9 tile it evenly.
  for (const double failed : {0.0, 0.097, 0.35}) {
    orbit::Constellation c{orbit::WalkerParams{}};
    util::Rng rng(2025);
    c.knock_out_random(failed, rng);
    for (const int L : {4, 9}) {
      SCOPED_TRACE("failed=" + std::to_string(failed) +
                   " L=" + std::to_string(L));
      const BucketMapper m(c, L);
      const Reference ref{c, m.tile_side()};
      for (int i = 0; i < c.size(); ++i) {
        const util::SatId idx{i};
        const orbit::SatelliteId from = c.id_of(idx);
        ASSERT_EQ(m.remap(from), ref.remap(from)) << "slot " << i;
        ASSERT_EQ(m.west_replica(from), ref.replica(from, ref.side))
            << "west replica of slot " << i;
        ASSERT_EQ(m.east_replica(from), ref.replica(from, -ref.side))
            << "east replica of slot " << i;
        for (int b = 0; b < L; ++b) {
          const util::BucketId bucket{b};
          const auto want = ref.owner(from, b);
          ASSERT_TRUE(want.has_value());
          ASSERT_EQ(m.owner(from, bucket), want)
              << "slot " << i << " bucket " << b;
          const BucketMapper::Route got = m.route(idx, bucket);
          ASSERT_EQ(got.owner, c.index_of(*want))
              << "slot " << i << " bucket " << b;
          ASSERT_EQ(got.inter, Reference::hops(want->plane.value() -
                                                   from.plane.value(),
                                               c.planes()))
              << "slot " << i << " bucket " << b;
          ASSERT_EQ(got.intra, Reference::hops(want->slot.value() -
                                                   from.slot.value(),
                                               c.slots_per_plane()))
              << "slot " << i << " bucket " << b;
        }
      }
    }
  }
}

}  // namespace
}  // namespace starcdn::core
