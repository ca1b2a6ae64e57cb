// Greedy-Dual-Size-Frequency eviction.
//
// CDN caches serve objects of wildly different sizes; GDSF evicts by the
// utility H = L + frequency / size, where L is an inflating clock set to
// the evicted utility. Small popular objects are protected, large
// rarely-used ones go first — the classic web-cache answer to the
// byte-vs-request hit-rate tension (§2.2's "various eviction policies have
// different strengths"). Included as a size-aware alternative for StarCDN's
// pluggable caching.
//
// The ordered utility queue is inherently a tree (eviction needs a global
// minimum over float keys), but the per-object state moves onto the shared
// slab + flat index: the queue maps (utility, id) -> slot, so an eviction
// or requeue touches the arena instead of a second node-based map.
#pragma once

#include <map>

#include "cache/detail/arena_cache.h"

namespace starcdn::cache {

namespace detail {
struct GdsfEntry : EntryBase {  // prev/next only link the slab's free list
  std::uint64_t frequency;
  double utility;
};
}  // namespace detail

class GdsfCache final : public detail::ArenaCache<detail::GdsfEntry> {
 public:
  using ArenaCache::ArenaCache;

  bool touch(ObjectId id) override;
  void admit(ObjectId id, Bytes size) override;
  [[nodiscard]] std::vector<std::pair<ObjectId, Bytes>> hottest(
      std::size_t n) const override;
  [[nodiscard]] Policy policy() const noexcept override {
    return Policy::kGdsf;
  }

  /// Current clock value L (for tests).
  [[nodiscard]] double clock() const noexcept { return clock_; }

 private:
  /// Give slot `s` its utility at the current clock and (re)queue it.
  void enqueue(std::uint32_t s);

  double clock_ = 0.0;
  // Utility-ordered priority queue; (utility, id) keys are unique per entry.
  std::map<std::pair<double, ObjectId>, std::uint32_t> queue_;
};

}  // namespace starcdn::cache
