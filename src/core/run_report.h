// Run reports: the simulator's output API (DESIGN.md §11).
//
// The replay loop counts into each variant's VariantMetrics; finish()
// materializes them, with the kCounters table naming every counter, into
// one RunReport: per-variant metrics, epoch time-series, counter snapshots
// and fleet totals. The report survives the Simulator that produced it,
// and its write_* methods are the only writers of a run's results.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "core/variant.h"
#include "obs/series.h"

namespace starcdn::core {

/// Derived per-epoch rate columns (request/byte hit rate, normalized
/// uplink) for exporting a core series table.
[[nodiscard]] std::vector<obs::SeriesTable::Derived> core_series_derived(
    const obs::SeriesTable& table);

/// One variant's share of a run, fully materialized.
struct VariantReport {
  Variant variant = Variant::kStarCdn;
  std::string name;          ///< to_string(variant)
  VariantMetrics metrics;    ///< counters, latency sampler, uplink meter
  obs::SeriesTable series;   ///< per-epoch counters; empty when disabled
  /// Every kCounters entry as (name, cumulative value), in kCounters order.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/// Self-contained result of a simulator run; outlives the Simulator.
struct RunReport {
  double epoch_seconds = 15.0;
  std::uint64_t seed = 0;
  std::vector<VariantReport> variants;
  /// Cross-variant totals: each kCounters entry summed over the variants.
  std::vector<std::pair<std::string, std::uint64_t>> totals;

  /// Throws std::out_of_range naming the variant when it was not
  /// registered.
  [[nodiscard]] const VariantReport& variant(Variant v) const;

  /// Epoch time-series CSV for one variant, with derived rate columns.
  void write_series_csv(Variant v, std::ostream& os) const;
  /// One `<prefix><variant-name>.csv` per variant; returns written paths.
  /// Throws std::runtime_error naming the path it cannot write.
  std::vector<std::string> write_series_csv_files(
      const std::string& prefix) const;
  /// Aligned per-variant summary table.
  void write_summary(std::ostream& os) const;
  /// Whole report as one JSON object (counters, summary rates, series).
  void write_json(std::ostream& os) const;
};

}  // namespace starcdn::core
