// Least Frequently Used eviction with O(1) operations.
//
// Implements the frequency-bucket structure of Ketan Shah et al.: an
// intrusive chain of frequency nodes (ascending counts), each holding an
// LRU-ordered intrusive list of entries with that access count. Eviction
// removes the least recently used entry of the lowest frequency. Both the
// entries and the frequency nodes live in slab arenas: a bump moves one
// entry between two adjacent buckets by relinking four u32 slots, with node
// creation/teardown recycling slab storage instead of allocating.
#pragma once

#include "cache/detail/arena_cache.h"

namespace starcdn::cache {

namespace detail {
struct LfuEntry : EntryBase {
  std::uint32_t node;  // owning frequency bucket (slot into nodes_)
};
}  // namespace detail

class LfuCache final : public detail::ArenaCache<detail::LfuEntry> {
 public:
  using ArenaCache::ArenaCache;

  bool touch(ObjectId id) override;
  void admit(ObjectId id, Bytes size) override;
  [[nodiscard]] std::vector<std::pair<ObjectId, Bytes>> hottest(
      std::size_t n) const override;
  [[nodiscard]] Policy policy() const noexcept override { return Policy::kLfu; }

  /// Access count of a resident object (0 if absent); for tests.
  [[nodiscard]] std::uint64_t frequency(ObjectId id) const;

 private:
  struct FreqNode {
    std::uint64_t freq;
    List entries;  // front = most recent at this freq
    std::uint32_t prev, next;
  };

  /// The bucket for `freq` that follows bucket `after` (kNullSlot = the
  /// head), created there when missing.
  [[nodiscard]] std::uint32_t bucket(std::uint64_t freq, std::uint32_t after);
  /// Remove `s` from its bucket, dropping the bucket once it is empty.
  void unlink(std::uint32_t s) noexcept;

  detail::Slab<FreqNode> nodes_;
  detail::IntrusiveList<FreqNode> freq_list_;  // ascending frequency order
};

}  // namespace starcdn::cache
