#include "cache/fifo.h"

namespace starcdn::cache {

void FifoCache::admit(ObjectId id, Bytes size) {
  if (size > capacity() || peek(id)) return;
  while (!list_.empty() && capacity() - used_bytes() < size) {
    const std::uint32_t victim = list_.tail;
    list_.unlink(slab_, victim);
    drop(victim, /*evicted=*/true);
  }
  list_.push_front(slab_, place(id, size));
}

void FifoCache::erase(ObjectId id) {
  const std::uint32_t s = slot_of(id);
  if (s == detail::kNullSlot) return;
  list_.unlink(slab_, s);
  drop(s, /*evicted=*/false);
}

std::vector<std::pair<ObjectId, Bytes>> FifoCache::hottest(
    std::size_t n) const {
  Hot out;
  append(list_, n, out);
  return out;
}

void FifoCache::clear() {
  clear_arena();
  list_.clear();
}

}  // namespace starcdn::cache
