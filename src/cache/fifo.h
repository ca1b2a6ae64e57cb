// First-In First-Out eviction: the simplest baseline and the substrate
// SIEVE builds on.
#pragma once

#include "cache/detail/arena_cache.h"

namespace starcdn::cache {

class FifoCache final : public detail::ArenaCache<> {
 public:
  using ArenaCache::ArenaCache;

  bool touch(ObjectId id) override { return peek(id); }
  void admit(ObjectId id, Bytes size) override;
  [[nodiscard]] std::vector<std::pair<ObjectId, Bytes>> hottest(
      std::size_t n) const override;
  [[nodiscard]] Policy policy() const noexcept override {
    return Policy::kFifo;
  }

 private:
  List list_;  // front = newest
};

}  // namespace starcdn::cache
