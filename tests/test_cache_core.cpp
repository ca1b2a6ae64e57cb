// Unit tests for the shared cache-core layer: the flat hash index
// (open addressing, backward-shift deletion) and the entry slab with its
// intrusive lists. Policy-level behaviour is covered by the differential
// harness in test_cache_policies.cpp; these tests pin down the primitives.
#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "cache/detail/flat_index.h"
#include "cache/detail/slab.h"
#include "util/rng.h"

namespace starcdn::cache::detail {
namespace {

TEST(FlatIndex, EmptyIndexFindsNothing) {
  FlatIndex idx;
  EXPECT_EQ(idx.find(0), kNullSlot);
  EXPECT_EQ(idx.find(42), kNullSlot);
  EXPECT_FALSE(idx.contains(42));
  EXPECT_FALSE(idx.erase(42));
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_EQ(idx.bucket_count(), 0u);
}

TEST(FlatIndex, InsertFindErase) {
  FlatIndex idx;
  idx.insert(7, 3);
  EXPECT_EQ(idx.find(7), 3u);
  EXPECT_TRUE(idx.contains(7));
  EXPECT_EQ(idx.find(8), kNullSlot);
  EXPECT_EQ(idx.size(), 1u);
  EXPECT_TRUE(idx.erase(7));
  EXPECT_EQ(idx.find(7), kNullSlot);
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_FALSE(idx.erase(7));
}

TEST(FlatIndex, GrowsPastAnyReserve) {
  FlatIndex idx;
  idx.reserve(8);
  const auto buckets_before = idx.bucket_count();
  for (std::uint64_t k = 0; k < 1'000; ++k) idx.insert(k, std::uint32_t(k));
  EXPECT_GT(idx.bucket_count(), buckets_before);
  for (std::uint64_t k = 0; k < 1'000; ++k) {
    ASSERT_EQ(idx.find(k), std::uint32_t(k)) << "lost key " << k;
  }
}

TEST(FlatIndex, ReserveAvoidsRehash) {
  FlatIndex idx;
  idx.reserve(1'000);
  const auto buckets = idx.bucket_count();
  for (std::uint64_t k = 0; k < 1'000; ++k) idx.insert(k, std::uint32_t(k));
  EXPECT_EQ(idx.bucket_count(), buckets);
  // Load factor stays at or under 3/4 by construction.
  EXPECT_LE(idx.size() * 4, idx.bucket_count() * 3);
}

TEST(FlatIndex, LoadFactorBoundedUnderGrowth) {
  FlatIndex idx;
  for (std::uint64_t k = 0; k < 10'000; ++k) {
    idx.insert(k * 977, std::uint32_t(k));
    ASSERT_LE(idx.size() * 4, idx.bucket_count() * 3);
    // Power-of-two bucket counts are a structural invariant.
    ASSERT_EQ(idx.bucket_count() & (idx.bucket_count() - 1), 0u);
  }
}

TEST(FlatIndex, BackwardShiftKeepsClustersReachable) {
  // Dense sequential keys produce overlapping probe clusters; deleting from
  // the middle of a cluster must never strand the keys displaced past the
  // hole. Erase every third key and verify every survivor stays findable.
  FlatIndex idx;
  constexpr std::uint64_t kN = 4'096;
  for (std::uint64_t k = 0; k < kN; ++k) idx.insert(k, std::uint32_t(k));
  for (std::uint64_t k = 0; k < kN; k += 3) EXPECT_TRUE(idx.erase(k));
  for (std::uint64_t k = 0; k < kN; ++k) {
    if (k % 3 == 0) {
      ASSERT_EQ(idx.find(k), kNullSlot) << "ghost key " << k;
    } else {
      ASSERT_EQ(idx.find(k), std::uint32_t(k)) << "stranded key " << k;
    }
  }
}

TEST(FlatIndex, RandomizedDifferentialAgainstUnorderedMap) {
  // 200k random insert/erase/find ops against std::unordered_map, spanning
  // growth from empty through several rehashes, with adversarially dense
  // and sparse key ranges mixed.
  FlatIndex idx;
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  util::Rng rng(7);
  for (int step = 0; step < 200'000; ++step) {
    const auto op = rng.below(10);
    // Two key ranges: dense low ids and sparse scattered ids.
    const std::uint64_t key =
        rng.below(2) ? rng.below(2'000) : rng.below(1'000'000) * 2'654'435'761ull;
    if (op < 5) {
      if (!ref.contains(key)) {
        const auto slot = static_cast<std::uint32_t>(rng.below(1 << 20));
        idx.insert(key, slot);
        ref.emplace(key, slot);
      }
    } else if (op < 8) {
      ASSERT_EQ(idx.erase(key), ref.erase(key) > 0) << "step " << step;
    } else {
      const auto it = ref.find(key);
      ASSERT_EQ(idx.find(key), it == ref.end() ? kNullSlot : it->second)
          << "step " << step << " key " << key;
    }
    ASSERT_EQ(idx.size(), ref.size());
  }
  // Full sweep: every reference entry must be present with the right slot.
  for (const auto& [key, slot] : ref) {
    ASSERT_EQ(idx.find(key), slot) << "final sweep key " << key;
  }
}

struct TestEntry {
  std::uint64_t id = 0;
  std::uint32_t prev = kNullSlot, next = kNullSlot;
};

TEST(Slab, AllocateGrowsReleaseRecycles) {
  Slab<TestEntry> slab;
  const auto a = slab.allocate();
  const auto b = slab.allocate();
  const auto c = slab.allocate();
  EXPECT_EQ(slab.live(), 3u);
  EXPECT_EQ(slab.arena_size(), 3u);
  slab.release(b);
  EXPECT_EQ(slab.live(), 2u);
  EXPECT_EQ(slab.arena_size(), 3u);  // memory is retained
  // LIFO recycling: the freed slot comes back before the arena grows.
  EXPECT_EQ(slab.allocate(), b);
  EXPECT_EQ(slab.arena_size(), 3u);
  slab.release(a);
  slab.release(c);
  EXPECT_EQ(slab.allocate(), c);
  EXPECT_EQ(slab.allocate(), a);
  EXPECT_EQ(slab.arena_size(), 3u);
}

TEST(Slab, SteadyStateChurnsWithoutGrowth) {
  // The zero-allocations-after-warm-up property: N live slots churned many
  // times never grow the arena past N.
  Slab<TestEntry> slab;
  std::vector<std::uint32_t> live;
  for (int i = 0; i < 64; ++i) live.push_back(slab.allocate());
  util::Rng rng(5);
  for (int step = 0; step < 10'000; ++step) {
    const auto pick = rng.below(live.size());
    slab.release(live[pick]);
    live[pick] = slab.allocate();
  }
  EXPECT_EQ(slab.arena_size(), 64u);
  EXPECT_EQ(slab.live(), 64u);
}

std::vector<std::uint64_t> ids_front_to_back(const Slab<TestEntry>& slab,
                                             const IntrusiveList<TestEntry>& l) {
  std::vector<std::uint64_t> out;
  for (auto s = l.head; s != kNullSlot; s = slab[s].next) {
    out.push_back(slab[s].id);
  }
  return out;
}

std::vector<std::uint64_t> ids_back_to_front(const Slab<TestEntry>& slab,
                                             const IntrusiveList<TestEntry>& l) {
  std::vector<std::uint64_t> out;
  for (auto s = l.tail; s != kNullSlot; s = slab[s].prev) {
    out.push_back(slab[s].id);
  }
  return out;
}

TEST(IntrusiveList, PushUnlinkMoveOrdering) {
  Slab<TestEntry> slab;
  IntrusiveList<TestEntry> list;
  EXPECT_TRUE(list.empty());

  std::uint32_t s[4];
  for (std::uint64_t i = 0; i < 4; ++i) {
    s[i] = slab.allocate();
    slab[s[i]].id = i;
    list.push_front(slab, s[i]);
  }
  EXPECT_EQ(ids_front_to_back(slab, list),
            (std::vector<std::uint64_t>{3, 2, 1, 0}));
  EXPECT_EQ(ids_back_to_front(slab, list),
            (std::vector<std::uint64_t>{0, 1, 2, 3}));

  list.move_front(slab, s[1]);  // middle -> front
  EXPECT_EQ(ids_front_to_back(slab, list),
            (std::vector<std::uint64_t>{1, 3, 2, 0}));
  list.move_front(slab, s[1]);  // already front: no-op
  EXPECT_EQ(ids_front_to_back(slab, list),
            (std::vector<std::uint64_t>{1, 3, 2, 0}));
  list.move_front(slab, s[0]);  // tail -> front
  EXPECT_EQ(ids_front_to_back(slab, list),
            (std::vector<std::uint64_t>{0, 1, 3, 2}));
  EXPECT_EQ(ids_back_to_front(slab, list),
            (std::vector<std::uint64_t>{2, 3, 1, 0}));

  list.unlink(slab, s[3]);  // unlink middle
  EXPECT_EQ(ids_front_to_back(slab, list),
            (std::vector<std::uint64_t>{0, 1, 2}));
  list.unlink(slab, s[2]);  // unlink tail
  list.unlink(slab, s[0]);  // unlink head
  EXPECT_EQ(ids_front_to_back(slab, list), (std::vector<std::uint64_t>{1}));
  list.unlink(slab, s[1]);  // unlink the last element
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.tail, kNullSlot);
}

TEST(IntrusiveList, InsertAfterMaintainsTail) {
  Slab<TestEntry> slab;
  IntrusiveList<TestEntry> list;
  const auto a = slab.allocate();
  slab[a].id = 0;
  list.push_front(slab, a);

  const auto b = slab.allocate();
  slab[b].id = 1;
  list.insert_after(slab, a, b);  // after tail -> becomes tail
  EXPECT_EQ(list.tail, b);
  EXPECT_EQ(ids_front_to_back(slab, list), (std::vector<std::uint64_t>{0, 1}));

  const auto c = slab.allocate();
  slab[c].id = 2;
  list.insert_after(slab, a, c);  // in the middle
  EXPECT_EQ(ids_front_to_back(slab, list),
            (std::vector<std::uint64_t>{0, 2, 1}));
  EXPECT_EQ(ids_back_to_front(slab, list),
            (std::vector<std::uint64_t>{1, 2, 0}));
  EXPECT_EQ(list.tail, b);
}

TEST(IntrusiveList, TwoListsShareOneSlab) {
  // SLRU's layout: one slab, two lists, entries spliced between them.
  Slab<TestEntry> slab;
  IntrusiveList<TestEntry> probation, protected_;
  std::uint32_t s[3];
  for (std::uint64_t i = 0; i < 3; ++i) {
    s[i] = slab.allocate();
    slab[s[i]].id = i;
    probation.push_front(slab, s[i]);
  }
  // Promote slot 1: unlink from one list, push onto the other.
  probation.unlink(slab, s[1]);
  protected_.push_front(slab, s[1]);
  EXPECT_EQ(ids_front_to_back(slab, probation),
            (std::vector<std::uint64_t>{2, 0}));
  EXPECT_EQ(ids_front_to_back(slab, protected_),
            (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(slab.live(), 3u);
}

}  // namespace
}  // namespace starcdn::cache::detail
