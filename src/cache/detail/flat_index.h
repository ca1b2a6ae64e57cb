// Open-addressing hash index `u64 key -> u32 slot` for the cache core.
//
// Replaces the per-policy `std::unordered_map<ObjectId, iterator>`: three
// parallel power-of-two arrays (a u32 slot, a 1-byte control and a 1-byte
// displacement per cell), linear probing, and tombstone-free backward-shift
// deletion. The index stores no keys. Every call that needs one takes
// `key_of`, a callable that maps a stored slot to its key; the cache core
// passes one that reads the slot's entry in its slab, so each object's key
// is stored once and a cell costs 6 bytes.
//
// The control array is the load-bearing trick (borrowed from Swiss-table
// designs, with SWAR byte groups instead of SIMD): each cell's control byte
// is either 0 (empty) or `0x80 | 7 hash bits`, so a probe scans the byte
// array eight cells per u64 load — 64 cells per cache line, small enough to
// stay L1/L2-resident — and only reads a slot, and through it a key, on a
// control-byte match. Negative lookups (the simulator's dominant pattern:
// every relayed-fetch probe and every miss path checks absent ids) usually
// finish on one or two hot byte-group loads with a 1/128 false-positive
// rate per scanned cell.
//
// Erasure is by slot: it probes from the victim key's home for the cell
// holding that slot, comparing slots, never neighbours' keys. It then
// backward-shifts the displaced tail of the cluster over the hole (slots,
// control bytes and displacement bytes together), so there are no
// tombstones and probe lengths cannot degrade under the simulator's heavy
// eviction churn. The displacement array caches each cell's distance from
// its home bucket (saturating at 255), turning the shift decision into a
// byte compare instead of a key load and rehash. Object ids are already
// 64-bit integers, so the key is mixed once with a Fibonacci multiply
// (golden-ratio constant; home = top log2(capacity) bits, control = 7 mid
// bits) and never re-hashed.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "cache/detail/slab.h"  // kNullSlot

namespace starcdn::cache::detail {

class FlatIndex {
 public:
  /// Pre-size so `n` keys fit without rehashing (load factor <= 3/4).
  template <typename KeyOf>
  void reserve(std::size_t n, const KeyOf& key_of) {
    // Smallest power of two keeping n keys at or under 3/4 load.
    std::size_t cap = kMinBuckets;
    while (cap < n + n / 3 + 1) cap <<= 1;
    if (cap > slots_.size()) grow(cap, key_of);
  }

  /// Slot mapped to `key`, or kNullSlot when absent.
  template <typename KeyOf>
  [[nodiscard]] std::uint32_t find(std::uint64_t key,
                                   const KeyOf& key_of) const noexcept {
    const std::size_t i = locate(
        mix(key), [&](std::uint32_t s) { return key_of(s) == key; });
    return i == kNone ? kNullSlot : slots_[i];
  }
  template <typename KeyOf>
  [[nodiscard]] bool contains(std::uint64_t key,
                              const KeyOf& key_of) const noexcept {
    return find(key, key_of) != kNullSlot;
  }

  /// Index `slot` under its key, `key_of(slot)`, which must not be present.
  template <typename KeyOf>
  void insert(std::uint32_t slot, const KeyOf& key_of) {
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) {
      grow(slots_.empty() ? kMinBuckets : slots_.size() * 2, key_of);
    }
    put(mix(key_of(slot)), slot);
    ++size_;
  }

  /// Remove the cell holding `slot` (backward-shift); `key_of(slot)` must
  /// still be its key. Returns false when `slot` is not indexed.
  template <typename KeyOf>
  bool erase(std::uint32_t slot, const KeyOf& key_of) noexcept {
    std::size_t i = locate(mix(key_of(slot)),
                           [slot](std::uint32_t s) { return s == slot; });
    if (i == kNone) return false;
    // Backward shift: walk the cluster after the hole and pull back every
    // cell displaced far enough that moving it to the hole keeps it at or
    // after its home cell, so no probe sequence is ever interrupted by the
    // deletion. The displacement bytes make this scan pure L1 byte reads;
    // only a saturated byte costs a key load.
    std::size_t j = i;
    while (true) {
      j = (j + 1) & mask_;
      if (ctrl_[j] == 0) break;
      const std::size_t dist = (j - i) & mask_;
      std::size_t d = disp_[j];
      if (d == kDispSaturated) d = (j - home(mix(key_of(slots_[j])))) & mask_;
      if (d < dist) continue;  // would land before its home; leave in place
      slots_[i] = slots_[j];
      ctrl_[i] = ctrl_[j];
      disp_[i] = saturate_disp(d - dist);
      i = j;
    }
    ctrl_[i] = 0;
    --size_;
    return true;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return slots_.size();
  }
  /// The cell where `key`'s probe starts; bucket_count() must be non-zero.
  [[nodiscard]] std::size_t home_of(std::uint64_t key) const noexcept {
    return home(mix(key));
  }

 private:
  static constexpr std::size_t kMinBuckets = 16;
  static constexpr std::size_t kGroup = 8;
  static constexpr std::size_t kNone = ~std::size_t{0};
  static constexpr std::uint8_t kDispSaturated = 0xFF;
  static constexpr std::uint64_t kLsb = 0x0101010101010101ull;
  static constexpr std::uint64_t kMsb = 0x8080808080808080ull;

  // Fibonacci multiplier (2^64 / golden ratio, forced odd). One multiply
  // replaces a full avalanche mix: the home index takes the hash's TOP bits,
  // where a single multiply mixes well, and golden-ratio steps turn dense
  // sequential object ids (the common trace shape) into a low-discrepancy,
  // cluster-free spread instead of the long probe runs identity hashing
  // would produce.
  static std::uint64_t mix(std::uint64_t key) noexcept {
    return key * 0x9E3779B97F4A7C15ull;
  }
  std::size_t home(std::uint64_t h) const noexcept { return h >> shift_; }

  /// Control byte for an occupied cell: marker bit + 7 mid hash bits
  /// (bits 33-39). The home index consumes the top `64 - shift_` bits, so
  /// the two stay independent for any table up to 2^24 buckets; past that
  /// they overlap and the tag merely discriminates less (never incorrectly).
  static std::uint8_t ctrl_of(std::uint64_t h) noexcept {
    return static_cast<std::uint8_t>(0x80u | ((h >> 33) & 0x7F));
  }
  static std::uint8_t saturate_disp(std::size_t d) noexcept {
    return d >= kDispSaturated ? kDispSaturated : static_cast<std::uint8_t>(d);
  }

  /// 8 control bytes starting at an 8-aligned index (capacity is a power of
  /// two >= 16, so an aligned group never straddles the end of the array).
  std::uint64_t group(std::size_t base) const noexcept {
    std::uint64_t g;
    std::memcpy(&g, &ctrl_[base], sizeof(g));
    return g;
  }
  /// Bit 8k+7 set where byte k of `g` equals `b`. SWAR zero-byte detection
  /// after XOR; borrows can set false-positive bits, but only at positions
  /// ABOVE a true match, and callers verify candidates by slot or key.
  static std::uint64_t match_byte(std::uint64_t g, std::uint8_t b) noexcept {
    const std::uint64_t x = g ^ (kLsb * b);
    return (x - kLsb) & ~x & kMsb;
  }
  /// Bit 8k+7 set where byte k of `g` is 0 (empty). The lowest set bit is
  /// always exact (borrow propagates upward only), which is all probing
  /// needs.
  static std::uint64_t match_empty(std::uint64_t g) noexcept {
    return (g - kLsb) & ~g & kMsb;
  }
  static std::size_t byte_of(std::uint64_t bit_mask) noexcept {
    return static_cast<std::size_t>(std::countr_zero(bit_mask)) / 8;
  }

  /// The first cell of `h`'s probe run whose control byte is `h`'s tag and
  /// whose slot `is_it` accepts, or kNone.
  template <typename IsIt>
  [[nodiscard]] std::size_t locate(std::uint64_t h,
                                   const IsIt& is_it) const noexcept {
    if (slots_.empty()) return kNone;
    const std::uint8_t tag = ctrl_of(h);
    const std::size_t start = home(h);
    // Scalar fast path: most probes resolve at the home cell (a hit on a
    // tag and slot match, a miss on an empty byte) without the group scan.
    const std::uint8_t c0 = ctrl_[start];
    if (c0 == tag && is_it(slots_[start])) return start;
    if (c0 == 0) return kNone;
    std::size_t base = start & ~(kGroup - 1);
    // Bytes before `start` in the first group precede the probe origin and
    // belong to other clusters; mask them out of both bit sets.
    std::uint64_t live = ~std::uint64_t{0} << (8 * (start - base));
    while (true) {
      const std::uint64_t g = group(base);
      const std::uint64_t empty = match_empty(g) & live;
      std::uint64_t m = match_byte(g, tag) & live;
      if (empty != 0) m &= (empty & (~empty + 1)) - 1;  // only before 1st empty
      while (m != 0) {
        const std::size_t i = base + byte_of(m);
        if (is_it(slots_[i])) return i;
        m &= m - 1;
      }
      if (empty != 0) return kNone;
      base = (base + kGroup) & mask_;
      live = ~std::uint64_t{0};
    }
  }

  /// Write `slot` into the first empty cell of `h`'s probe run.
  void put(std::uint64_t h, std::uint32_t slot) noexcept {
    const std::size_t start = home(h);
    std::size_t i = start;
    if (ctrl_[i] != 0) {
      std::size_t base = start & ~(kGroup - 1);
      std::uint64_t live = ~std::uint64_t{0} << (8 * (start - base));
      std::uint64_t empty;
      while ((empty = match_empty(group(base)) & live) == 0) {
        base = (base + kGroup) & mask_;
        live = ~std::uint64_t{0};
      }
      i = base + byte_of(empty);
    }
    ctrl_[i] = ctrl_of(h);
    disp_[i] = saturate_disp((i - start) & mask_);
    slots_[i] = slot;
  }

  /// Rehash into `cap` cells, reading each indexed slot's key through
  /// `key_of`.
  template <typename KeyOf>
  void grow(std::size_t cap, const KeyOf& key_of) {
    const std::vector<std::uint32_t> old_slots = std::move(slots_);
    const std::vector<std::uint8_t> old_ctrl = std::move(ctrl_);
    slots_.assign(cap, kNullSlot);
    ctrl_.assign(cap, 0);
    disp_.assign(cap, 0);
    mask_ = cap - 1;
    shift_ = 64 - static_cast<std::uint32_t>(std::countr_zero(cap));
    for (std::size_t k = 0; k < old_slots.size(); ++k) {
      if (old_ctrl[k] != 0) put(mix(key_of(old_slots[k])), old_slots[k]);
    }
  }

  std::vector<std::uint32_t> slots_;
  std::vector<std::uint8_t> ctrl_;  // 0 = empty, else 0x80 | 7 hash bits
  std::vector<std::uint8_t> disp_;  // distance from home cell, saturating
  std::size_t mask_ = 0;            // slots_.size() - 1 while non-empty
  std::uint32_t shift_ = 64;        // home index = hash >> shift_
  std::size_t size_ = 0;
};

}  // namespace starcdn::cache::detail
