#include "cache/sieve.h"

namespace starcdn::cache {

bool SieveCache::touch(ObjectId id) {
  const std::uint32_t s = slot_of(id);
  if (s == detail::kNullSlot) return false;
  slab_[s].visited = true;
  return true;
}

void SieveCache::evict_one() {
  // The hand sweeps tail -> head, clearing visited bits, and evicts the
  // first unvisited entry; it wraps to the tail when it passes the head.
  if (list_.empty()) return;
  if (hand_ == detail::kNullSlot) hand_ = list_.tail;
  while (slab_[hand_].visited) {
    slab_[hand_].visited = false;
    hand_ = hand_ == list_.head ? list_.tail : slab_[hand_].prev;
  }
  const std::uint32_t victim = hand_;
  // Advance the hand before erasing; "toward head", wrapping at the head.
  hand_ = victim == list_.head ? detail::kNullSlot : slab_[victim].prev;
  list_.unlink(slab_, victim);
  drop(victim);
}

void SieveCache::admit(ObjectId id, Bytes size) {
  if (size > capacity() || peek(id)) return;
  while (!list_.empty() && capacity() - used_bytes() < size) evict_one();
  const std::uint32_t s = place(id, size);
  slab_[s].visited = false;
  list_.push_front(slab_, s);
}

std::vector<std::pair<ObjectId, Bytes>> SieveCache::hottest(
    std::size_t n) const {
  // Visited entries first (they survived a sweep), then by insertion order.
  Hot out = begin_hottest(n);
  append(list_, n, out, [](const auto& e) { return e.visited; });
  append(list_, n, out, [](const auto& e) { return !e.visited; });
  return out;
}

}  // namespace starcdn::cache
