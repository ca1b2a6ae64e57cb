#include "cache/slru.h"

#include <stdexcept>
#include <string>

namespace starcdn::cache {

SlruCache::SlruCache(Bytes capacity, double protected_fraction)
    : ArenaCache(capacity),
      protected_capacity_(static_cast<Bytes>(
          static_cast<double>(capacity) * protected_fraction)) {
  // NaN fails both comparisons' complement, so write the check to reject it.
  if (!(protected_fraction >= 0.0 && protected_fraction <= 1.0)) {
    throw std::invalid_argument(
        "SlruCache: protected_fraction must be in [0, 1], got " +
        std::to_string(protected_fraction));
  }
}

void SlruCache::unlink(std::uint32_t s) noexcept {
  if (slab_[s].is_protected) {
    protected_used_ -= slab_[s].size;
    protected_.unlink(slab_, s);
  } else {
    probation_.unlink(slab_, s);
  }
}

bool SlruCache::touch(ObjectId id) {
  const std::uint32_t s = slot_of(id);
  if (s == detail::kNullSlot) return false;
  if (slab_[s].is_protected) {
    protected_.move_front(slab_, s);
    return true;
  }
  // Promote probation -> protected, then demote the protected tail back to
  // probation until the segment fits again.
  unlink(s);
  slab_[s].is_protected = true;
  protected_used_ += slab_[s].size;
  protected_.push_front(slab_, s);
  while (protected_used_ > protected_capacity_ && !protected_.empty()) {
    const std::uint32_t demoted = protected_.tail;
    unlink(demoted);
    slab_[demoted].is_protected = false;
    probation_.push_front(slab_, demoted);
  }
  return true;
}

void SlruCache::admit(ObjectId id, Bytes size) {
  if (size > capacity()) return;
  if (touch(id)) return;
  // Evict from probation first, then from the protected tail.
  while (capacity() - used_bytes() < size) {
    const std::uint32_t victim =
        probation_.empty() ? protected_.tail : probation_.tail;
    if (victim == detail::kNullSlot) break;
    unlink(victim);
    drop(victim);
  }
  const std::uint32_t s = place(id, size);
  slab_[s].is_protected = false;
  probation_.push_front(slab_, s);
}

std::vector<std::pair<ObjectId, Bytes>> SlruCache::hottest(
    std::size_t n) const {
  // Protected (re-referenced) objects first, then probation.
  Hot out = begin_hottest(n);
  append(protected_, n, out);
  append(probation_, n, out);
  return out;
}

}  // namespace starcdn::cache
