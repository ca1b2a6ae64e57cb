// Metrics collected per simulated variant: hit/miss breakdown, byte
// accounting (uplink = Fig. 8), latency samples (Fig. 10), relay-probe
// availability (Table 3) and per-satellite counters (Fig. 11).
//
// VariantMetrics is the only store of these quantities (DESIGN.md §11): the
// replay fold stage increments its fields directly, and kCounters names
// each scalar counter once for every export — RunReport counters and
// totals, and the epoch time-series columns.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/bandwidth.h"
#include "util/stats.h"
#include "util/units.h"

namespace starcdn::core {

/// Reservoir size of each variant's latency QuantileSampler (Fig. 10).
/// Memory is 8 bytes * reservoir * variants and quantile queries sort the
/// reservoir; at 200k samples the p50/p95 sampling error on a day-long
/// trace is well under the figures' line width.
inline constexpr std::size_t kDefaultLatencyReservoir = 200'000;

struct VariantMetrics {
  std::uint64_t requests = 0;
  std::uint64_t local_hits = 0;    // served by the first-contact satellite
  std::uint64_t routed_hits = 0;   // served by the bucket owner
  std::uint64_t relay_west_hits = 0;  // owner miss, trailing replica served
  std::uint64_t relay_east_hits = 0;  // owner miss, leading replica served
  std::uint64_t misses = 0;        // fetched from the ground
  std::uint64_t unreachable = 0;   // no satellite in view (coverage gap)

  std::uint64_t transient_misses = 0;  // serving cache briefly down (§3.4)
  std::uint64_t handovers = 0;  // first-contact satellite changed at an
                                // epoch boundary (scheduler reshuffle)

  util::Bytes bytes_requested = 0;
  util::Bytes bytes_hit = 0;       // bytes served from orbit
  util::Bytes uplink_bytes = 0;    // ground->satellite fetches (scarce GSL)
  util::Bytes isl_bytes = 0;       // object bytes moved across ISLs
  util::Bytes prefetch_bytes = 0;  // speculative transfers (kPrefetch only)

  // Relay-probe availability on an owner miss (Table 3's columns): only the
  // west replica, only the east one, or both held the object.
  std::uint64_t relay_west_only_requests = 0;
  std::uint64_t relay_east_only_requests = 0;
  std::uint64_t relay_both_requests = 0;
  util::Bytes relay_west_only_bytes = 0;
  util::Bytes relay_east_only_bytes = 0;
  util::Bytes relay_both_bytes = 0;

  util::QuantileSampler latency_ms{kDefaultLatencyReservoir};

  /// Per-(satellite, epoch) GSL throughput accounting; quantifies pressure
  /// on the 20 Gbps uplink budget of Table 1. Finalized by Simulator::run.
  net::UplinkMeter uplink_meter;

  // Per-satellite hit accounting (linear satellite index), Fig. 11.
  std::vector<std::uint32_t> sat_requests;
  std::vector<std::uint32_t> sat_hits;
  std::vector<util::Bytes> sat_bytes_requested;
  std::vector<util::Bytes> sat_bytes_hit;

  [[nodiscard]] std::uint64_t hits() const noexcept {
    return local_hits + routed_hits + relay_west_hits + relay_east_hits;
  }
  [[nodiscard]] double request_hit_rate() const noexcept {
    return requests ? static_cast<double>(hits()) /
                          static_cast<double>(requests)
                    : 0.0;
  }
  [[nodiscard]] double byte_hit_rate() const noexcept {
    return bytes_requested ? static_cast<double>(bytes_hit) /
                                 static_cast<double>(bytes_requested)
                           : 0.0;
  }
  /// Uplink usage normalized to fetching everything from the ground
  /// (the paper's Fig. 8 y-axis).
  [[nodiscard]] double normalized_uplink() const noexcept {
    return bytes_requested ? static_cast<double>(uplink_bytes) /
                                 static_cast<double>(bytes_requested)
                           : 0.0;
  }
};

/// One scalar counter: its export name and the field that holds it.
struct CounterField {
  std::string_view name;
  std::uint64_t VariantMetrics::*field;
};

/// Every scalar counter in export order. The names and their order are an
/// interface: RunReport JSON and the benchmark harness read them by name.
inline constexpr std::array<CounterField, 20> kCounters{{
    {"requests", &VariantMetrics::requests},
    {"local_hits", &VariantMetrics::local_hits},
    {"routed_hits", &VariantMetrics::routed_hits},
    {"relay_west_hits", &VariantMetrics::relay_west_hits},
    {"relay_east_hits", &VariantMetrics::relay_east_hits},
    {"misses", &VariantMetrics::misses},
    {"unreachable", &VariantMetrics::unreachable},
    {"transient_misses", &VariantMetrics::transient_misses},
    {"handovers", &VariantMetrics::handovers},
    {"bytes_requested", &VariantMetrics::bytes_requested},
    {"bytes_hit", &VariantMetrics::bytes_hit},
    {"uplink_bytes", &VariantMetrics::uplink_bytes},
    {"isl_bytes", &VariantMetrics::isl_bytes},
    {"prefetch_bytes", &VariantMetrics::prefetch_bytes},
    {"relay_west_only_requests", &VariantMetrics::relay_west_only_requests},
    {"relay_east_only_requests", &VariantMetrics::relay_east_only_requests},
    {"relay_both_requests", &VariantMetrics::relay_both_requests},
    {"relay_west_only_bytes", &VariantMetrics::relay_west_only_bytes},
    {"relay_east_only_bytes", &VariantMetrics::relay_east_only_bytes},
    {"relay_both_bytes", &VariantMetrics::relay_both_bytes},
}};

/// The epoch time-series records the first kSeriesColumns counters (the
/// ingredients of hit-rate, uplink and handover time-series).
inline constexpr std::size_t kSeriesColumns = 14;
static_assert(kSeriesColumns <= kCounters.size());

/// Names of the epoch-series columns, for obs::EpochSeries.
[[nodiscard]] std::vector<std::string> series_columns();

/// obs::EpochSeries row filler: writes the series columns' current values
/// out of `m`.
[[nodiscard]] inline auto series_row(const VariantMetrics& m) {
  return [&m](std::span<std::uint64_t> row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      row[c] = m.*kCounters[c].field;
    }
  };
}

/// Throws std::logic_error naming `variant` and the broken identity unless
/// the counters conserve requests (every request is a hit of one kind or a
/// miss), bytes (every byte is served from orbit or fetched over the
/// uplink) and relay hits (each relay hit has exactly one availability
/// outcome; the west replica serves when both hold the object).
void check_conservation(const VariantMetrics& m, std::string_view variant);

}  // namespace starcdn::core
