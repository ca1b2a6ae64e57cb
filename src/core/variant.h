// Architecture variants the simulator can replay. The enum is the public
// identity; VariantSpec is what a variant *does*. Every replay decision
// reads the spec, and the one table in variant.cpp is the only place that
// maps an enum value to behaviour, so a new design is a new row rather than
// new branches in the hot loop. Split out of simulator.h so report/sink
// code (run_report.h) can name variants without pulling in the simulator.
#pragma once

#include <cstdint>

namespace starcdn::core {

enum class Variant : std::uint8_t {
  kStatic,
  kVanillaLru,
  kHashOnly,
  kRelayOnly,
  kStarCdn,
  kPrefetch,
};

/// Which caches a miss at the serving satellite probes before the ground
/// (relayed fetch, §3.3).
enum class Relay : std::uint8_t {
  kNone,
  /// The active inter-orbit neighbours, one hop away; "west" is the
  /// trailing (+RAAN) plane.
  kNeighbours,
  /// The same-bucket west/east replicas, tile_side() planes away.
  kReplicas,
};

/// The independent switches that make up one variant.
struct VariantSpec {
  const char* name;  // paper-facing display name ("StarCDN", ...)
  /// Satellites frozen at their epoch-0 geometry: epoch-0 first contact
  /// and no handovers (the paper's unachievable north star).
  bool frozen;
  /// Serve at the bucket owner of consistent hashing (§3.2).
  bool hashed;
  Relay relay;
  /// On entering each scheduler epoch, pull the trailing replica's hot set
  /// (the proactive alternative §3.3 argues against).
  bool prefetch;
};

/// The spec row of `v`.
[[nodiscard]] const VariantSpec& variant_spec(Variant v) noexcept;

/// Paper-facing display name ("StarCDN", "StarCDN-Fetch", ...).
[[nodiscard]] const char* to_string(Variant v) noexcept;

}  // namespace starcdn::core
