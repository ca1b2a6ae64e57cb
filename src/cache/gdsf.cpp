#include "cache/gdsf.h"

#include <algorithm>

namespace starcdn::cache {

void GdsfCache::enqueue(std::uint32_t s) {
  detail::GdsfEntry& e = slab_[s];
  e.utility = clock_ + static_cast<double>(e.frequency) /
                           static_cast<double>(std::max<Bytes>(e.size, 1));
  queue_.emplace(std::pair{e.utility, e.id}, s);
}

bool GdsfCache::touch(ObjectId id) {
  const std::uint32_t s = slot_of(id);
  if (s == detail::kNullSlot) return false;
  queue_.erase({slab_[s].utility, id});
  ++slab_[s].frequency;
  enqueue(s);
  return true;
}

void GdsfCache::admit(ObjectId id, Bytes size) {
  if (size > capacity()) return;
  if (touch(id)) return;
  while (!queue_.empty() && capacity() - used_bytes() < size) {
    const auto victim = queue_.begin();
    const std::uint32_t s = victim->second;
    // The inflating clock: future admissions start from the last evicted
    // utility, so long-resident entries age out.
    clock_ = victim->first.first;
    queue_.erase(victim);
    drop(s);
  }
  const std::uint32_t s = place(id, size);
  slab_[s].frequency = 1;
  enqueue(s);
}

std::vector<std::pair<ObjectId, Bytes>> GdsfCache::hottest(
    std::size_t n) const {
  Hot out = begin_hottest(n);
  for (auto it = queue_.rbegin(); it != queue_.rend() && out.size() < n;
       ++it) {
    out.emplace_back(slab_[it->second].id, slab_[it->second].size);
  }
  return out;
}

}  // namespace starcdn::cache
