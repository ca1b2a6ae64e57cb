#include "cache/fifo.h"

namespace starcdn::cache {

void FifoCache::admit(ObjectId id, Bytes size) {
  if (size > capacity() || peek(id)) return;
  while (!list_.empty() && capacity() - used_bytes() < size) {
    const std::uint32_t victim = list_.tail;
    list_.unlink(slab_, victim);
    drop(victim);
  }
  list_.push_front(slab_, place(id, size));
}

std::vector<std::pair<ObjectId, Bytes>> FifoCache::hottest(
    std::size_t n) const {
  Hot out = begin_hottest(n);
  append(list_, n, out);
  return out;
}

}  // namespace starcdn::cache
