// SIEVE eviction (Zhang et al., NSDI 2024), cited by the paper as a policy
// its consistent hashing composes with (§3.2).
//
// SIEVE keeps a FIFO-ordered list with one "visited" bit per entry and a
// hand that sweeps from tail to head: on eviction the hand skips (and
// clears) visited entries and removes the first unvisited one. Hits only
// set the visited bit — no list movement — which makes hits cheaper than
// LRU and gives better scan resistance. Here the list is intrusive over the
// entry slab and the hand is a slot index (kNullSlot = restart at the
// tail), so the sweep is a contiguous-arena pointer chase.
#pragma once

#include "cache/detail/arena_cache.h"

namespace starcdn::cache {

namespace detail {
struct SieveEntry : EntryBase {
  bool visited;
};
}  // namespace detail

class SieveCache final : public detail::ArenaCache<detail::SieveEntry> {
 public:
  using ArenaCache::ArenaCache;

  bool touch(ObjectId id) override;
  void admit(ObjectId id, Bytes size) override;
  [[nodiscard]] std::vector<std::pair<ObjectId, Bytes>> hottest(
      std::size_t n) const override;
  [[nodiscard]] Policy policy() const noexcept override {
    return Policy::kSieve;
  }

 private:
  void evict_one();

  List list_;  // front = newest insertion
  std::uint32_t hand_ = detail::kNullSlot;
};

}  // namespace starcdn::cache
