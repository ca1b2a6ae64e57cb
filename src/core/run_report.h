// Run reports and metric sinks: the simulator's output API (DESIGN.md §11).
//
// The replay loop counts into each variant's VariantMetrics; finish()
// materializes them, with the kCounters table naming every counter, into:
//
//   * RunReport       — self-contained result of a run: per-variant
//                       metrics + epoch time-series + counter snapshots and
//                       fleet totals. Survives the Simulator that produced
//                       it.
//   * MetricsSink     — consumer interface; register sinks with
//                       Simulator::add_sink() and they fire on finish().
//   * SeriesCsvSink / SummarySink / TraceJsonSink — stock sinks covering
//                       the bench harness and examples.
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

  [[nodiscard]] const VariantReport* find(Variant v) const noexcept;
  /// Throws std::out_of_range when the variant was not registered.
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

/// Consumer of a finished run; register via Simulator::add_sink(). Sinks
/// are invoked in registration order from Simulator::finish().
class MetricsSink {
 public:
  virtual ~MetricsSink() = default;
  virtual void consume(const RunReport& report) = 0;
};

/// Prints RunReport::write_summary to a stream on finish().
class SummarySink final : public MetricsSink {
 public:
  explicit SummarySink(std::ostream& os) : os_(&os) {}
  void consume(const RunReport& report) override;

 private:
  std::ostream* os_;
};

/// Writes one epoch-series CSV per variant: `<prefix><variant-name>.csv`.
class SeriesCsvSink final : public MetricsSink {
 public:
  explicit SeriesCsvSink(std::string prefix) : prefix_(std::move(prefix)) {}
  void consume(const RunReport& report) override;
  [[nodiscard]] const std::vector<std::string>& paths() const noexcept {
    return paths_;
  }

 private:
  std::string prefix_;
  std::vector<std::string> paths_;
};

/// Flushes the process-wide obs::Tracer (if installed) to a JSON file.
class TraceJsonSink final : public MetricsSink {
 public:
  explicit TraceJsonSink(std::string path) : path_(std::move(path)) {}
  void consume(const RunReport& report) override;
  /// True once a trace file was actually written.
  [[nodiscard]] bool written() const noexcept { return written_; }

 private:
  std::string path_;
  bool written_ = false;
};

}  // namespace starcdn::core
