// Segmented LRU: a probationary segment absorbs one-hit wonders, a
// protected segment holds re-referenced objects. A common production LRU
// variant ("different LRU variants are often deployed in commercial CDNs",
// §2.2); included as an ablation policy for StarCDN's pluggable caching.
// Both segments are intrusive lists over one shared entry slab, so
// promotion/demotion is a relink, not a reallocation.
#pragma once

#include "cache/detail/arena_cache.h"

namespace starcdn::cache {

namespace detail {
struct SlruEntry : EntryBase {
  bool is_protected;
};
}  // namespace detail

class SlruCache final : public detail::ArenaCache<detail::SlruEntry> {
 public:
  /// `protected_fraction` of capacity is reserved for re-referenced
  /// objects; throws std::invalid_argument outside [0, 1] (incl. NaN).
  explicit SlruCache(Bytes capacity, double protected_fraction = 0.8);

  bool touch(ObjectId id) override;
  void admit(ObjectId id, Bytes size) override;
  [[nodiscard]] std::vector<std::pair<ObjectId, Bytes>> hottest(
      std::size_t n) const override;
  [[nodiscard]] Policy policy() const noexcept override {
    return Policy::kSlru;
  }

  [[nodiscard]] Bytes protected_bytes() const noexcept {
    return protected_used_;
  }

 private:
  /// Remove `s` from whichever segment holds it.
  void unlink(std::uint32_t s) noexcept;

  Bytes protected_capacity_;
  Bytes protected_used_ = 0;
  List probation_;  // front = most recent
  List protected_;  // front = most recent
};

}  // namespace starcdn::cache
