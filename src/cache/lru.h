// Least Recently Used eviction — the paper's policy of choice (§2.2, §5).
#pragma once

#include <optional>

#include "cache/detail/arena_cache.h"

namespace starcdn::cache {

/// Classic LRU: recency as an intrusive list over the entry slab. touch() is
/// O(1); admit() evicts from the tail until the object fits.
class LruCache final : public detail::ArenaCache<> {
 public:
  using ArenaCache::ArenaCache;

  bool touch(ObjectId id) override;
  void admit(ObjectId id, Bytes size) override;
  [[nodiscard]] std::vector<std::pair<ObjectId, Bytes>> hottest(
      std::size_t n) const override;
  [[nodiscard]] Policy policy() const noexcept override { return Policy::kLru; }

  /// Least-recently-used object id; nullopt on an empty cache.
  [[nodiscard]] std::optional<ObjectId> lru_victim() const noexcept {
    if (list_.empty()) return std::nullopt;
    return slab_[list_.tail].id;
  }

 private:
  List list_;  // front = most recent
};

}  // namespace starcdn::cache
