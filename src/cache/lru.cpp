#include "cache/lru.h"

namespace starcdn::cache {

bool LruCache::touch(ObjectId id) {
  const std::uint32_t s = slot_of(id);
  if (s == detail::kNullSlot) return false;
  list_.move_front(slab_, s);
  return true;
}

void LruCache::admit(ObjectId id, Bytes size) {
  if (size > capacity()) return;
  if (touch(id)) return;  // already resident
  while (!list_.empty() && capacity() - used_bytes() < size) {
    const std::uint32_t victim = list_.tail;
    list_.unlink(slab_, victim);
    drop(victim);
  }
  list_.push_front(slab_, place(id, size));
}

std::vector<std::pair<ObjectId, Bytes>> LruCache::hottest(
    std::size_t n) const {
  Hot out = begin_hottest(n);
  append(list_, n, out);
  return out;
}

}  // namespace starcdn::cache
