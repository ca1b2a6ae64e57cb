// Open-addressing hash index `u64 key -> u32 slot` for the cache core.
//
// Replaces the per-policy `std::unordered_map<ObjectId, iterator>`: a flat
// power-of-two array of 16-byte cells plus parallel 1-byte control and
// displacement arrays, linear probing, and tombstone-free backward-shift
// deletion.
//
// The control array is the load-bearing trick (borrowed from Swiss-table
// designs, with SWAR byte groups instead of SIMD): each cell's control byte
// is either 0 (empty) or `0x80 | 7 hash bits`, so a probe scans the byte
// array eight cells per u64 load — 64 cells per cache line, small enough to
// stay L1/L2-resident — and only dereferences the wide cell on a
// control-byte match. Negative lookups (the simulator's dominant pattern:
// every relayed-fetch probe and every miss path checks absent ids) usually
// finish on one or two hot byte-group loads with a 1/128 false-positive
// rate per scanned cell.
//
// Deletion backward-shifts the displaced tail of the cluster over the hole
// (cells, control bytes, and displacement bytes together), so there are no
// tombstones and probe lengths cannot degrade under the simulator's heavy
// eviction churn. The displacement array caches each cell's distance from
// its home bucket (saturating at 255), turning the shift decision into a
// byte compare instead of a rehash. Object ids are already 64-bit integers,
// so the key is mixed once with a Fibonacci multiply (golden-ratio
// constant; home = top log2(capacity) bits, control = 7 mid bits) and never
// re-hashed.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/detail/slab.h"  // kNullSlot

namespace starcdn::cache::detail {

class FlatIndex {
 public:
  FlatIndex() = default;

  /// Pre-size so `n` keys fit without rehashing (load factor <= 3/4).
  void reserve(std::size_t n);

  /// Slot mapped to `key`, or kNullSlot when absent.
  [[nodiscard]] std::uint32_t find(std::uint64_t key) const noexcept;
  [[nodiscard]] bool contains(std::uint64_t key) const noexcept {
    return find(key) != kNullSlot;
  }

  /// Insert a mapping; `key` must not be present.
  void insert(std::uint64_t key, std::uint32_t slot);

  /// Remove `key` (backward-shift); returns false when absent.
  bool erase(std::uint64_t key) noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return cells_.size();
  }

 private:
  struct Cell {
    std::uint64_t key;
    std::uint32_t slot;
  };

  [[nodiscard]] std::size_t disp_at(std::size_t i) const noexcept;
  void grow(std::size_t cap);

  std::vector<Cell> cells_;
  std::vector<std::uint8_t> ctrl_;  // 0 = empty, else 0x80 | 7 hash bits
  std::vector<std::uint8_t> disp_;  // distance from home cell, saturating
  std::size_t mask_ = 0;            // cells_.size() - 1 while non-empty
  std::uint32_t shift_ = 64;        // home index = hash >> shift_
  std::size_t size_ = 0;
};

}  // namespace starcdn::cache::detail
