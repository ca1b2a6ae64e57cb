// Entry slab + intrusive slot-linked list: the storage layer of the cache
// core (DESIGN.md §"Cache-core memory layout").
//
// Every eviction policy keeps its entries in one contiguous arena
// (`Slab<Entry>`) and expresses ordering through 32-bit slot links carried
// *inside* the entries, instead of `std::list` nodes scattered across the
// heap. Consequences on the simulator's hot path:
//
//   * zero allocations after warm-up — evicted slots go on a free list and
//     are recycled by the next admit;
//   * ordering updates (touch -> move-to-front, evict -> unlink tail) touch
//     at most three adjacent 24-48 byte entries, not five list nodes;
//   * slot indices are half the size of pointers, so entries pack tighter
//     and the index (detail::FlatIndex) stores u32 values.
//
// Invariants:
//   * a slot is either LIVE (reachable from exactly one intrusive list, or
//     owned by a policy-side structure like GDSF's queue) or FREE (on the
//     slab free list, where `next` is repurposed as the free link);
//   * `kNullSlot` terminates both lists and marks "no slot" everywhere;
//   * releasing a slot invalidates its contents but never its memory — the
//     arena only grows, so entry references stay valid across release (but
//     NOT across allocate(), which may reallocate the vector).
#pragma once

#include <cstdint>
#include <vector>

#include "util/parallel.h"

namespace starcdn::cache::detail {

inline constexpr std::uint32_t kNullSlot = 0xFFFFFFFFu;

/// Contiguous arena of `Entry` with an intrusive free list. `Entry` must be
/// default-constructible and expose `std::uint32_t prev, next` members (the
/// slab reuses `next` as the free-list link while a slot is free).
template <typename Entry>
class Slab {
 public:
  void reserve(std::size_t n) { entries_.reserve(n); }

  /// Pop a recycled slot, or grow the arena by one. The returned entry's
  /// fields are stale; the caller initializes them.
  [[nodiscard]] std::uint32_t allocate() {
    if (free_head_ != kNullSlot) {
      const std::uint32_t s = free_head_;
      free_head_ = entries_[s].next;
      --free_count_;
      return s;
    }
    entries_.emplace_back();
    return static_cast<std::uint32_t>(entries_.size() - 1);
  }

  /// Return a slot to the free list. The caller must have unlinked it from
  /// any intrusive list first.
  void release(std::uint32_t s) noexcept {
    entries_[s].next = free_head_;
    free_head_ = s;
    ++free_count_;
  }

  [[nodiscard]] Entry& operator[](std::uint32_t s) noexcept {
    return entries_[s];
  }
  [[nodiscard]] const Entry& operator[](std::uint32_t s) const noexcept {
    return entries_[s];
  }

  /// Live (allocated and not released) slot count.
  [[nodiscard]] std::size_t live() const noexcept {
    return entries_.size() - free_count_;
  }
  [[nodiscard]] std::size_t arena_size() const noexcept {
    return entries_.size();
  }

  /// Prefetch every cache line of the arena.
  void prefetch() const noexcept {
    const auto* bytes = reinterpret_cast<const char*>(entries_.data());
    const std::size_t end = entries_.size() * sizeof(Entry);
    for (std::size_t at = 0; at < end; at += util::kCacheLine) {
      __builtin_prefetch(bytes + at);
    }
  }

 private:
  std::vector<Entry> entries_;
  std::uint32_t free_head_ = kNullSlot;
  std::size_t free_count_ = 0;
};

/// Doubly-linked list over slab slots. The list itself holds only head/tail;
/// all link state lives in the entries' `prev`/`next` members, so splicing a
/// slot between lists sharing one slab (SLRU's segments, LFU's frequency
/// buckets) is just unlink + push_front with no data movement.
template <typename Entry>
struct IntrusiveList {
  std::uint32_t head = kNullSlot;  // front
  std::uint32_t tail = kNullSlot;  // back

  [[nodiscard]] bool empty() const noexcept { return head == kNullSlot; }
  void clear() noexcept { head = tail = kNullSlot; }

  void push_front(Slab<Entry>& slab, std::uint32_t s) noexcept {
    Entry& e = slab[s];
    e.prev = kNullSlot;
    e.next = head;
    if (head != kNullSlot) {
      slab[head].prev = s;
    } else {
      tail = s;
    }
    head = s;
  }

  /// Insert `s` immediately after `pos` (which must be a live member).
  void insert_after(Slab<Entry>& slab, std::uint32_t pos,
                    std::uint32_t s) noexcept {
    Entry& e = slab[s];
    Entry& p = slab[pos];
    e.prev = pos;
    e.next = p.next;
    if (p.next != kNullSlot) {
      slab[p.next].prev = s;
    } else {
      tail = s;
    }
    p.next = s;
  }

  void unlink(Slab<Entry>& slab, std::uint32_t s) noexcept {
    Entry& e = slab[s];
    if (e.prev != kNullSlot) {
      slab[e.prev].next = e.next;
    } else {
      head = e.next;
    }
    if (e.next != kNullSlot) {
      slab[e.next].prev = e.prev;
    } else {
      tail = e.prev;
    }
  }

  void move_front(Slab<Entry>& slab, std::uint32_t s) noexcept {
    if (head == s) return;
    unlink(slab, s);
    push_front(slab, s);
  }
};

}  // namespace starcdn::cache::detail
