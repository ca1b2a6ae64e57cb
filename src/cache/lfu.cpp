#include "cache/lfu.h"

namespace starcdn::cache {

std::uint32_t LfuCache::bucket(std::uint64_t freq, std::uint32_t after) {
  const std::uint32_t at =
      after == detail::kNullSlot ? freq_list_.head : nodes_[after].next;
  if (at != detail::kNullSlot && nodes_[at].freq == freq) return at;
  const std::uint32_t node = nodes_.allocate();
  nodes_[node].freq = freq;
  nodes_[node].entries.clear();
  if (after == detail::kNullSlot) {
    freq_list_.push_front(nodes_, node);
  } else {
    freq_list_.insert_after(nodes_, after, node);
  }
  return node;
}

void LfuCache::unlink(std::uint32_t s) noexcept {
  const std::uint32_t node = slab_[s].node;
  nodes_[node].entries.unlink(slab_, s);
  if (!nodes_[node].entries.empty()) return;
  freq_list_.unlink(nodes_, node);
  nodes_.release(node);
}

bool LfuCache::touch(ObjectId id) {
  const std::uint32_t s = slot_of(id);
  if (s == detail::kNullSlot) return false;
  // Create the next bucket before leaving the current one, which unlink may
  // release.
  const std::uint32_t cur = slab_[s].node;
  const std::uint32_t next = bucket(nodes_[cur].freq + 1, cur);
  unlink(s);
  nodes_[next].entries.push_front(slab_, s);
  slab_[s].node = next;
  return true;
}

void LfuCache::admit(ObjectId id, Bytes size) {
  if (size > capacity()) return;
  if (touch(id)) return;
  // Evict the least recent entry of the lowest frequency.
  while (!freq_list_.empty() && capacity() - used_bytes() < size) {
    const std::uint32_t victim = nodes_[freq_list_.head].entries.tail;
    unlink(victim);
    drop(victim);
  }
  const std::uint32_t node = bucket(1, detail::kNullSlot);
  const std::uint32_t s = place(id, size);
  nodes_[node].entries.push_front(slab_, s);
  slab_[s].node = node;
}

std::vector<std::pair<ObjectId, Bytes>> LfuCache::hottest(
    std::size_t n) const {
  // Walk frequency nodes from highest to lowest, recency order within each.
  Hot out = begin_hottest(n);
  for (std::uint32_t node = freq_list_.tail;
       node != detail::kNullSlot && out.size() < n; node = nodes_[node].prev) {
    append(nodes_[node].entries, n, out);
  }
  return out;
}

std::uint64_t LfuCache::frequency(ObjectId id) const {
  const std::uint32_t s = slot_of(id);
  return s == detail::kNullSlot ? 0 : nodes_[slab_[s].node].freq;
}

}  // namespace starcdn::cache
