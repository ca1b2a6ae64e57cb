#include "cache/cache.h"

#include <stdexcept>

#include "cache/fifo.h"
#include "cache/lfu.h"
#include "cache/gdsf.h"
#include "cache/lru.h"
#include "cache/sieve.h"
#include "cache/slru.h"

namespace starcdn::cache {

const char* to_string(Policy p) noexcept {
  switch (p) {
    case Policy::kLru: return "lru";
    case Policy::kLfu: return "lfu";
    case Policy::kFifo: return "fifo";
    case Policy::kSieve: return "sieve";
    case Policy::kSlru: return "slru";
    case Policy::kGdsf: return "gdsf";
  }
  return "?";
}

Policy parse_policy(const std::string& name) {
  if (name == "lru") return Policy::kLru;
  if (name == "lfu") return Policy::kLfu;
  if (name == "fifo") return Policy::kFifo;
  if (name == "sieve") return Policy::kSieve;
  if (name == "slru") return Policy::kSlru;
  if (name == "gdsf") return Policy::kGdsf;
  throw std::invalid_argument("unknown cache policy: " + name);
}

AccessResult Cache::access(ObjectId id, Bytes size) {
  ++stats_.requests;
  stats_.bytes_requested += size;
  if (touch(id)) {
    ++stats_.hits;
    stats_.bytes_hit += size;
    return AccessResult::kHit;
  }
  if (size > capacity_) return AccessResult::kMissTooLarge;
  admit(id, size);
  return AccessResult::kMissInserted;
}

std::size_t presize_hint(Bytes capacity, Bytes mean_object_size) noexcept {
  if (mean_object_size == 0) return 0;
  constexpr std::size_t kMaxPresize = std::size_t{1} << 20;
  const Bytes n = capacity / mean_object_size;
  return n < kMaxPresize ? static_cast<std::size_t>(n) : kMaxPresize;
}

namespace {

template <typename PolicyCache>
std::unique_ptr<Cache> presized(Bytes capacity, std::size_t expected_objects) {
  auto cache = std::make_unique<PolicyCache>(capacity);
  if (expected_objects) cache->reserve(expected_objects);
  return cache;
}

}  // namespace

std::unique_ptr<Cache> make_cache(Policy policy, Bytes capacity,
                                  std::size_t expected_objects) {
  switch (policy) {
    case Policy::kLru: return presized<LruCache>(capacity, expected_objects);
    case Policy::kLfu: return presized<LfuCache>(capacity, expected_objects);
    case Policy::kFifo: return presized<FifoCache>(capacity, expected_objects);
    case Policy::kSieve:
      return presized<SieveCache>(capacity, expected_objects);
    case Policy::kSlru: return presized<SlruCache>(capacity, expected_objects);
    case Policy::kGdsf: return presized<GdsfCache>(capacity, expected_objects);
  }
  throw std::invalid_argument("make_cache: unknown policy");
}

}  // namespace starcdn::cache
