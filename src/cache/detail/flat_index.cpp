#include "cache/detail/flat_index.h"

#include <bit>
#include <cstring>

namespace starcdn::cache::detail {

namespace {

constexpr std::size_t kMinBuckets = 16;
constexpr std::size_t kGroup = 8;
constexpr std::uint8_t kDispSaturated = 0xFF;
// Fibonacci multiplier (2^64 / golden ratio, forced odd). One multiply
// replaces a full avalanche mix: the home index takes the hash's TOP bits,
// where a single multiply mixes well, and golden-ratio steps turn dense
// sequential object ids (the common trace shape) into a low-discrepancy,
// cluster-free spread instead of the long probe runs identity hashing
// would produce.
constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;
constexpr std::uint64_t kLsb = 0x0101010101010101ull;
constexpr std::uint64_t kMsb = 0x8080808080808080ull;

[[nodiscard]] std::size_t pow2_at_least(std::size_t n) noexcept {
  std::size_t cap = kMinBuckets;
  while (cap < n) cap <<= 1;
  return cap;
}

[[nodiscard]] std::uint64_t mix(std::uint64_t key) noexcept {
  return key * kMul;
}

/// Control byte for an occupied cell: marker bit + 7 mid hash bits
/// (bits 33-39). The home index consumes the top `64 - shift_` bits, so the
/// two stay independent for any table up to 2^24 buckets; past that they
/// overlap and the tag merely discriminates less (never incorrectly).
[[nodiscard]] std::uint8_t ctrl_of(std::uint64_t h) noexcept {
  return static_cast<std::uint8_t>(0x80u | ((h >> 33) & 0x7F));
}

[[nodiscard]] std::uint8_t saturate_disp(std::size_t d) noexcept {
  return d >= kDispSaturated ? kDispSaturated
                             : static_cast<std::uint8_t>(d);
}

/// 8 control bytes starting at an 8-aligned index (capacity is a power of
/// two >= 16, so an aligned group never straddles the end of the array).
[[nodiscard]] std::uint64_t load_group(const std::uint8_t* p) noexcept {
  std::uint64_t g;
  std::memcpy(&g, p, sizeof(g));
  return g;
}

/// Bit 8k+7 set where byte k of `g` equals `b`. SWAR zero-byte detection
/// after XOR; borrows can set false-positive bits, but only at positions
/// ABOVE a true match, and callers verify candidates against the full key.
[[nodiscard]] std::uint64_t match_byte(std::uint64_t g,
                                       std::uint8_t b) noexcept {
  const std::uint64_t x = g ^ (kLsb * b);
  return (x - kLsb) & ~x & kMsb;
}

/// Bit 8k+7 set where byte k of `g` is 0 (empty). The lowest set bit is
/// always exact (borrow propagates upward only), which is all probing needs.
[[nodiscard]] std::uint64_t match_empty(std::uint64_t g) noexcept {
  return (g - kLsb) & ~g & kMsb;
}

[[nodiscard]] std::size_t byte_of(std::uint64_t bit_mask) noexcept {
  return static_cast<std::size_t>(std::countr_zero(bit_mask)) / 8;
}

}  // namespace

void FlatIndex::reserve(std::size_t n) {
  // Smallest power of two keeping n keys at or under 3/4 load.
  const std::size_t cap = pow2_at_least(n + n / 3 + 1);
  if (cap > cells_.size()) grow(cap);
}

std::uint32_t FlatIndex::find(std::uint64_t key) const noexcept {
  if (cells_.empty()) return kNullSlot;
  const std::uint64_t h = mix(key);
  const std::uint8_t tag = ctrl_of(h);
  const std::size_t start = h >> shift_;
  // Scalar fast path: most probes resolve at the home cell (hit with a tag
  // and key match, miss with an empty byte) without the group-scan setup.
  const std::uint8_t c0 = ctrl_[start];
  if (c0 == tag && cells_[start].key == key) return cells_[start].slot;
  if (c0 == 0) return kNullSlot;
  std::size_t base = start & ~(kGroup - 1);
  // Bytes before `start` in the first group precede the probe origin and
  // belong to other clusters; mask them out of both bit sets.
  std::uint64_t live = ~std::uint64_t{0} << (8 * (start - base));
  while (true) {
    const std::uint64_t g = load_group(&ctrl_[base]);
    const std::uint64_t empty = match_empty(g) & live;
    std::uint64_t m = match_byte(g, tag) & live;
    if (empty != 0) m &= (empty & (~empty + 1)) - 1;  // only before 1st empty
    while (m != 0) {
      const std::size_t i = base + byte_of(m);
      if (cells_[i].key == key) return cells_[i].slot;
      m &= m - 1;
    }
    if (empty != 0) return kNullSlot;
    base = (base + kGroup) & mask_;
    live = ~std::uint64_t{0};
  }
}

void FlatIndex::insert(std::uint64_t key, std::uint32_t slot) {
  if (cells_.empty() || (size_ + 1) * 4 > cells_.size() * 3) {
    grow(cells_.empty() ? kMinBuckets : cells_.size() * 2);
  }
  const std::uint64_t h = mix(key);
  const std::size_t home = h >> shift_;
  std::size_t i = home;
  if (ctrl_[i] != 0) {
    std::size_t base = home & ~(kGroup - 1);
    std::uint64_t live = ~std::uint64_t{0} << (8 * (home - base));
    while (true) {
      const std::uint64_t empty = match_empty(load_group(&ctrl_[base])) & live;
      if (empty != 0) {
        i = base + byte_of(empty);
        break;
      }
      base = (base + kGroup) & mask_;
      live = ~std::uint64_t{0};
    }
  }
  ctrl_[i] = ctrl_of(h);
  disp_[i] = saturate_disp((i - home) & mask_);
  cells_[i] = {key, slot};
  ++size_;
}

std::size_t FlatIndex::disp_at(std::size_t i) const noexcept {
  const std::uint8_t d = disp_[i];
  if (d != kDispSaturated) return d;
  // Saturated displacement (essentially unreachable below ~255-long probe
  // chains): recompute the true distance from the key.
  return (i - (mix(cells_[i].key) >> shift_)) & mask_;
}

bool FlatIndex::erase(std::uint64_t key) noexcept {
  if (cells_.empty()) return false;
  const std::uint64_t h = mix(key);
  const std::uint8_t tag = ctrl_of(h);
  const std::size_t start = h >> shift_;
  std::size_t i = start;
  const std::uint8_t c0 = ctrl_[start];
  if (c0 != tag || cells_[start].key != key) {
    if (c0 == 0) return false;
    std::size_t base = start & ~(kGroup - 1);
    std::uint64_t live = ~std::uint64_t{0} << (8 * (start - base));
    bool found = false;
    while (!found) {
      const std::uint64_t g = load_group(&ctrl_[base]);
      const std::uint64_t empty = match_empty(g) & live;
      std::uint64_t m = match_byte(g, tag) & live;
      if (empty != 0) m &= (empty & (~empty + 1)) - 1;
      while (m != 0) {
        i = base + byte_of(m);
        if (cells_[i].key == key) {
          found = true;
          break;
        }
        m &= m - 1;
      }
      if (found) break;
      if (empty != 0) return false;
      base = (base + kGroup) & mask_;
      live = ~std::uint64_t{0};
    }
  }
  // Backward shift: walk the cluster after the hole and pull back every
  // cell displaced far enough that moving it to the hole keeps it at or
  // after its home cell, so no probe sequence is ever interrupted by the
  // deletion. The displacement bytes make this scan pure L1 byte reads —
  // no key loads, no re-hashing.
  std::size_t j = i;
  while (true) {
    j = (j + 1) & mask_;
    if (ctrl_[j] == 0) break;
    const std::size_t dist = (j - i) & mask_;
    const std::size_t d = disp_at(j);
    if (d < dist) continue;  // would land before its home; leave in place
    cells_[i] = cells_[j];
    ctrl_[i] = ctrl_[j];
    disp_[i] = saturate_disp(d - dist);
    i = j;
  }
  ctrl_[i] = 0;
  --size_;
  return true;
}

void FlatIndex::grow(std::size_t cap) {
  std::vector<Cell> old_cells = std::move(cells_);
  std::vector<std::uint8_t> old_ctrl = std::move(ctrl_);
  cells_.assign(cap, Cell{0, kNullSlot});
  ctrl_.assign(cap, 0);
  disp_.assign(cap, 0);
  mask_ = cap - 1;
  shift_ = 64 - static_cast<std::uint32_t>(std::countr_zero(cap));
  for (std::size_t k = 0; k < old_cells.size(); ++k) {
    if (old_ctrl[k] == 0) continue;
    const std::uint64_t h = mix(old_cells[k].key);
    const std::size_t home = h >> shift_;
    std::size_t i = home;
    while (ctrl_[i] != 0) i = (i + 1) & mask_;
    ctrl_[i] = ctrl_of(h);
    disp_[i] = saturate_disp((i - home) & mask_);
    cells_[i] = old_cells[k];
  }
}

}  // namespace starcdn::cache::detail
