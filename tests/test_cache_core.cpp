// Unit tests for the shared cache-core layer: the slot-only flat hash
// index (open addressing, erase by slot, backward-shift deletion) and the
// entry slab with its intrusive lists. Policy-level behaviour is covered by
// the differential harness in test_cache_policies.cpp; these tests pin down
// the primitives.
#include <gtest/gtest.h>

#include <iterator>
#include <unordered_map>
#include <vector>

#include "cache/detail/flat_index.h"
#include "cache/detail/slab.h"
#include "util/rng.h"

namespace starcdn::cache::detail {
namespace {

// The index stores slots only and reads keys through a `key_of` callable.
// These tests keep the keys in a test-local array indexed by slot, standing
// in for the entry slab; `identity` maps slot k to key k.
const auto identity = [](std::uint32_t s) { return std::uint64_t{s}; };

TEST(FlatIndex, EmptyIndexFindsNothing) {
  FlatIndex idx;
  EXPECT_EQ(idx.find(0, identity), kNullSlot);
  EXPECT_EQ(idx.find(42, identity), kNullSlot);
  EXPECT_FALSE(idx.contains(42, identity));
  EXPECT_FALSE(idx.erase(42, identity));
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_EQ(idx.bucket_count(), 0u);
}

TEST(FlatIndex, InsertFindErase) {
  FlatIndex idx;
  const std::vector<std::uint64_t> keys = {0, 0, 0, 7};
  const auto key_of = [&](std::uint32_t s) { return keys[s]; };
  idx.insert(3, key_of);
  EXPECT_EQ(idx.find(7, key_of), 3u);
  EXPECT_TRUE(idx.contains(7, key_of));
  EXPECT_EQ(idx.find(8, key_of), kNullSlot);
  EXPECT_EQ(idx.size(), 1u);
  EXPECT_TRUE(idx.erase(3, key_of));
  EXPECT_EQ(idx.find(7, key_of), kNullSlot);
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_FALSE(idx.erase(3, key_of));
}

TEST(FlatIndex, EraseComparesSlotsNotKeys) {
  // Slots 0 and 1 both read key 7, but only slot 0 is indexed: erasing
  // slot 1 probes key 7's run, finds no cell holding slot 1 and leaves
  // slot 0 in place.
  FlatIndex idx;
  const std::vector<std::uint64_t> keys = {7, 7};
  const auto key_of = [&](std::uint32_t s) { return keys[s]; };
  idx.insert(0, key_of);
  EXPECT_FALSE(idx.erase(1, key_of));
  EXPECT_EQ(idx.find(7, key_of), 0u);
  EXPECT_EQ(idx.size(), 1u);
  EXPECT_TRUE(idx.erase(0, key_of));
  EXPECT_EQ(idx.find(7, key_of), kNullSlot);
}

TEST(FlatIndex, ErasedSlotIsReusedForAnotherKey) {
  // The slab recycles an evicted slot for the next admit: once erased, a
  // slot may be indexed again under a different key.
  FlatIndex idx;
  std::vector<std::uint64_t> keys = {11, 12, 13};
  const auto key_of = [&](std::uint32_t s) { return keys[s]; };
  for (std::uint32_t s = 0; s < 3; ++s) idx.insert(s, key_of);
  EXPECT_TRUE(idx.erase(1, key_of));
  keys[1] = 99;
  idx.insert(1, key_of);
  EXPECT_EQ(idx.find(12, key_of), kNullSlot);
  EXPECT_EQ(idx.find(99, key_of), 1u);
  EXPECT_EQ(idx.find(11, key_of), 0u);
  EXPECT_EQ(idx.find(13, key_of), 2u);
  EXPECT_EQ(idx.size(), 3u);
}

TEST(FlatIndex, GrowsPastAnyReserve) {
  FlatIndex idx;
  idx.reserve(8, identity);
  const auto buckets_before = idx.bucket_count();
  for (std::uint32_t k = 0; k < 1'000; ++k) idx.insert(k, identity);
  EXPECT_GT(idx.bucket_count(), buckets_before);
  for (std::uint32_t k = 0; k < 1'000; ++k) {
    ASSERT_EQ(idx.find(k, identity), k) << "lost key " << k;
  }
}

TEST(FlatIndex, ReserveAvoidsRehash) {
  FlatIndex idx;
  idx.reserve(1'000, identity);
  const auto buckets = idx.bucket_count();
  for (std::uint32_t k = 0; k < 1'000; ++k) idx.insert(k, identity);
  EXPECT_EQ(idx.bucket_count(), buckets);
  // Load factor stays at or under 3/4 by construction.
  EXPECT_LE(idx.size() * 4, idx.bucket_count() * 3);
}

TEST(FlatIndex, LoadFactorBoundedUnderGrowth) {
  FlatIndex idx;
  const auto key_of = [](std::uint32_t s) { return std::uint64_t{s} * 977; };
  for (std::uint32_t k = 0; k < 10'000; ++k) {
    idx.insert(k, key_of);
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
  constexpr std::uint32_t kN = 4'096;
  for (std::uint32_t k = 0; k < kN; ++k) idx.insert(k, identity);
  for (std::uint32_t k = 0; k < kN; k += 3) EXPECT_TRUE(idx.erase(k, identity));
  for (std::uint32_t k = 0; k < kN; ++k) {
    if (k % 3 == 0) {
      ASSERT_EQ(idx.find(k, identity), kNullSlot) << "ghost key " << k;
    } else {
      ASSERT_EQ(idx.find(k, identity), k) << "stranded key " << k;
    }
  }
}

/// The test's stand-in for the entry slab: the key of slot s is `of[s]`,
/// and erased slots are recycled LIFO, as `Slab` recycles them.
struct SlotKeys {
  std::vector<std::uint64_t> of;
  std::vector<std::uint32_t> free;

  std::uint32_t place(std::uint64_t key) {
    if (free.empty()) {
      of.push_back(key);
      return static_cast<std::uint32_t>(of.size() - 1);
    }
    const std::uint32_t s = free.back();
    free.pop_back();
    of[s] = key;
    return s;
  }
  [[nodiscard]] auto key_of() const {
    return [this](std::uint32_t s) { return of[s]; };
  }
};

TEST(FlatIndex, RandomizedDifferentialAgainstUnorderedMap) {
  // 200k random insert/erase/find ops against std::unordered_map, spanning
  // growth from empty through several rehashes, with adversarially dense
  // and sparse key ranges mixed.
  FlatIndex idx;
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  SlotKeys keys;
  const auto key_of = keys.key_of();
  util::Rng rng(7);
  for (int step = 0; step < 200'000; ++step) {
    const auto op = rng.below(10);
    // Two key ranges: dense low ids and sparse scattered ids.
    const std::uint64_t key =
        rng.below(2) ? rng.below(2'000) : rng.below(1'000'000) * 2'654'435'761ull;
    if (op < 5) {
      if (!ref.contains(key)) {
        const std::uint32_t slot = keys.place(key);
        idx.insert(slot, key_of);
        ref.emplace(key, slot);
      }
    } else if (op < 8) {
      const auto it = ref.find(key);
      if (it != ref.end()) {
        ASSERT_TRUE(idx.erase(it->second, key_of)) << "step " << step;
        keys.free.push_back(it->second);
        ref.erase(it);
      } else if (!keys.free.empty()) {
        // A released slot is not indexed, whatever key it last held.
        ASSERT_FALSE(idx.erase(keys.free.back(), key_of)) << "step " << step;
      }
    } else {
      const auto it = ref.find(key);
      ASSERT_EQ(idx.find(key, key_of), it == ref.end() ? kNullSlot : it->second)
          << "step " << step << " key " << key;
    }
    ASSERT_EQ(idx.size(), ref.size());
  }
  // Full sweep: every reference entry must be present with the right slot.
  for (const auto& [key, slot] : ref) {
    ASSERT_EQ(idx.find(key, key_of), slot) << "final sweep key " << key;
  }
}

TEST(FlatIndex, SaturatedDisplacementRunSurvivesEraseAndGrow) {
  // 300 keys that share one home cell in a 1024-cell table form a probe run
  // of at least 300 cells, so their displacement bytes saturate at 255 and
  // a backward shift must recompute the true distance from keys read
  // through key_of. Keys whose homes lie inside the run pile up after it
  // with saturated bytes of their own, and scattered keys make the shift
  // walks skip cells. Random erasures and inserts churn the run at fixed
  // capacity, then the table grows past it; every step is checked against
  // a reference map.
  FlatIndex idx;
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  SlotKeys keys;
  const auto key_of = keys.key_of();
  idx.reserve(700, key_of);
  const std::size_t cap = idx.bucket_count();
  ASSERT_EQ(cap, 1024u);

  util::Rng rng(11);
  const std::size_t home = idx.home_of(rng());
  // A fresh random key, absent from the index, whose home is `home` + an
  // offset in [0, span).
  const auto draw = [&](std::size_t span) {
    while (true) {
      const std::uint64_t k = rng();
      if (((idx.home_of(k) - home) & (cap - 1)) < span && !ref.contains(k)) {
        return k;
      }
    }
  };
  const auto insert = [&](std::uint64_t k) {
    const std::uint32_t slot = keys.place(k);
    idx.insert(slot, key_of);
    ref.emplace(k, slot);
  };
  const auto erase_random = [&] {
    auto it = ref.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng.below(ref.size())));
    ASSERT_TRUE(idx.erase(it->second, key_of)) << "key " << it->first;
    keys.free.push_back(it->second);
    ref.erase(it);
  };
  const auto check_all = [&](int step) {
    ASSERT_EQ(idx.size(), ref.size()) << "step " << step;
    for (const auto& [key, slot] : ref) {
      ASSERT_EQ(idx.find(key, key_of), slot) << "step " << step;
    }
  };

  for (int i = 0; i < 300; ++i) insert(draw(1));
  for (int i = 0; i < 100; ++i) insert(draw(300));
  for (int i = 0; i < 200; ++i) insert(draw(cap));
  ASSERT_EQ(idx.bucket_count(), cap);
  check_all(-1);

  for (int step = 0; step < 2'000; ++step) {
    const auto op = rng.below(4);
    if (op < 2 || ref.size() >= cap * 3 / 4) {
      erase_random();
    } else {
      insert(draw(op == 2 ? 1 : 300));
    }
    ASSERT_EQ(idx.bucket_count(), cap);
    check_all(step);
    if (HasFailure()) return;
  }

  while (idx.bucket_count() == cap) insert(draw(cap));
  check_all(2'000);
  while (!ref.empty()) erase_random();
  EXPECT_EQ(idx.size(), 0u);
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
