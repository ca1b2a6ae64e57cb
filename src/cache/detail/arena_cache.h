// Arena core shared by every eviction policy (DESIGN.md §"Cache-core memory
// layout").
//
// Each policy stores its entries in one `Slab<Entry>` and finds them through
// one `FlatIndex`, which stores slots and reads their keys (`EntryBase::id`)
// from the slab; the byte/count bookkeeping in `Cache` moves in lockstep
// with both. ArenaCache owns that storage and writes the lockstep once:
// `place` admits an entry (allocate, index, count), `drop` evicts one
// (unindex, count the eviction, release). A policy derives from
// ArenaCache, extends `EntryBase` with its own fields, and keeps only its
// ordering: which list a placed slot joins, which slot goes next, and how a
// hit reorders. It must unlink a slot from its own structures before
// `drop`, because releasing a slot reuses its `next` link.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "cache/cache.h"
#include "cache/detail/flat_index.h"
#include "cache/detail/slab.h"

namespace starcdn::cache::detail {

/// The fields every policy's entry carries: the object and its slot links.
struct EntryBase {
  ObjectId id;
  Bytes size;
  std::uint32_t prev, next;
};

template <typename Entry = EntryBase>
class ArenaCache : public Cache {
 public:
  using Cache::Cache;

  [[nodiscard]] bool peek(ObjectId id) const final {
    return index_.contains(id, keys());
  }
  /// Pre-size the entry slab and hash index for roughly `expected_objects`
  /// simultaneously-resident objects, so a warm cache never reallocates on
  /// the serving path. Purely a performance hint: behaviour is identical
  /// with or without it, and the cache still grows past the hint if the
  /// workload needs it. make_cache calls it.
  void reserve(std::size_t expected_objects) {
    slab_.reserve(expected_objects);
    index_.reserve(expected_objects, keys());
  }

 protected:
  using List = IntrusiveList<Entry>;
  using Hot = std::vector<std::pair<ObjectId, Bytes>>;

  /// Slot of a resident object, or kNullSlot.
  [[nodiscard]] std::uint32_t slot_of(ObjectId id) const noexcept {
    return index_.find(id, keys());
  }

  /// Allocate and index a slot for `id`; the policy initializes its own
  /// fields and links the slot into its order.
  [[nodiscard]] std::uint32_t place(ObjectId id, Bytes size) {
    const std::uint32_t s = slab_.allocate();
    slab_[s].id = id;
    slab_[s].size = size;
    index_.insert(s, keys());
    note_admit(size);
    return s;
  }

  /// Evict an already-unlinked slot: unindex it by slot, count the eviction
  /// and release it.
  void drop(std::uint32_t s) noexcept {
    index_.erase(s, keys());
    note_evict(slab_[s].size);
    slab_.release(s);
  }

  /// The output of a hottest(n) walk, reserved. The walk is a chain of
  /// dependent loads through a cache another satellite left cold; while n
  /// covers at least half the arena (2n entries) the walk touches most of
  /// its lines anyway, so all of them are prefetched at once first.
  [[nodiscard]] Hot begin_hottest(std::size_t n) const {
    Hot out;
    out.reserve(std::min(n, object_count()));
    if (slab_.arena_size() <= 2 * n) slab_.prefetch();
    return out;
  }

  /// Append `list`'s entries front to back while `out` holds fewer than `n`,
  /// keeping only those `keep` accepts.
  template <typename Keep>
  void append(const List& list, std::size_t n, Hot& out, Keep keep) const {
    for (std::uint32_t s = list.head; s != kNullSlot && out.size() < n;
         s = slab_[s].next) {
      if (keep(slab_[s])) out.emplace_back(slab_[s].id, slab_[s].size);
    }
  }
  void append(const List& list, std::size_t n, Hot& out) const {
    append(list, n, out, [](const Entry&) { return true; });
  }

  Slab<Entry> slab_;

 private:
  /// The index stores slots only; it reads each slot's key from its entry.
  [[nodiscard]] auto keys() const noexcept {
    return [this](std::uint32_t s) noexcept -> std::uint64_t {
      return slab_[s].id;
    };
  }

  FlatIndex index_;
};

}  // namespace starcdn::cache::detail
