#include "core/variant.h"

#include <cstddef>
#include <iterator>

namespace starcdn::core {
namespace {

// The paper's six curves, one row per Variant in enum order. The ablation
// names read as StarCDN *minus* a feature: "StarCDN-Fetch" is hashing
// without relayed fetch, "StarCDN-Hashing" relayed fetch without hashing.
constexpr VariantSpec kSpecs[] = {
    // name               frozen hashed relay               prefetch
    {"StaticCache",       true,  false, Relay::kNone,       false},
    {"VanillaLRU",        false, false, Relay::kNone,       false},
    {"StarCDN-Fetch",     false, true,  Relay::kNone,       false},
    {"StarCDN-Hashing",   false, false, Relay::kNeighbours, false},
    {"StarCDN",           false, true,  Relay::kReplicas,   false},
    {"StarCDN-Prefetch",  false, true,  Relay::kNone,       true},
};
static_assert(std::size(kSpecs) ==
              static_cast<std::size_t>(Variant::kPrefetch) + 1);

}  // namespace

const VariantSpec& variant_spec(Variant v) noexcept {
  return kSpecs[static_cast<std::size_t>(v)];
}

const char* to_string(Variant v) noexcept {
  const auto i = static_cast<std::size_t>(v);
  return i < std::size(kSpecs) ? kSpecs[i].name : "?";
}

}  // namespace starcdn::core
