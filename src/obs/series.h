// Per-epoch time series of cumulative counters (DESIGN.md §11).
//
// The simulator's dynamics — hit-rate dips when the constellation drifts
// over an ocean, uplink saturation at a regional prime time, handover
// storms at epoch boundaries — are invisible in end-of-run totals. An
// EpochSeries snapshots a named set of counters at every scheduler-epoch
// boundary (15 s by default), cumulatively; deltas and derived rates are
// computed at export time. Recording is a single integer compare per
// request plus one row collected per epoch crossed, so it stays on by
// default.
//
// The recorder itself is single-owner (one per simulator variant, advanced
// in trace order on that variant's worker), which makes the rows bitwise
// identical for any thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace starcdn::obs {

/// A materialized, self-contained series: column names + cumulative
/// counter values per epoch row. This is what travels inside a RunReport
/// after the simulator is gone.
struct SeriesTable {
  std::vector<std::string> columns;
  double epoch_seconds = 15.0;
  std::vector<std::uint64_t> epochs;  ///< epoch index per row (ascending)
  std::vector<std::uint64_t> values;  ///< row-major, cumulative

  [[nodiscard]] std::size_t rows() const noexcept { return epochs.size(); }
  [[nodiscard]] std::uint64_t at(std::size_t row, std::size_t col) const {
    return values[row * columns.size() + col];
  }
  /// Per-epoch increment: row's cumulative value minus the previous row's.
  [[nodiscard]] std::uint64_t delta(std::size_t row, std::size_t col) const {
    const std::uint64_t cur = at(row, col);
    return row == 0 ? cur : cur - at(row - 1, col);
  }
  /// Column index by name; npos when absent.
  [[nodiscard]] std::size_t column(const std::string& name) const;

  /// Extra export column computed from one row's deltas.
  struct Derived {
    std::string name;
    std::function<double(const SeriesTable&, std::size_t row)> fn;
  };

  /// CSV: epoch,t_end_s,<per-column deltas>[,<derived>...]. Deterministic
  /// for a deterministic recording.
  void write_csv(std::ostream& os,
                 const std::vector<Derived>& derived = {}) const;
  /// JSON object: {"epoch_seconds":..,"columns":[..],"epochs":[..],
  /// "deltas":[[..row..],..]}.
  void write_json(std::ostream& os) const;
};

/// Incremental recorder over one counter stream. The counters themselves
/// live with the caller: on each epoch crossed, the recorder hands a
/// `fill(std::span<std::uint64_t> row)` callback one row to write the
/// current cumulative values into, one per column.
class EpochSeries {
 public:
  EpochSeries() = default;  // disabled: records nothing
  explicit EpochSeries(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  /// Snapshot every epoch boundary crossed on the way to `epoch`. Call
  /// *before* processing the first request of `epoch`; calls with
  /// equal/smaller epochs are no-ops, so this sits on the per-request
  /// path as one compare.
  template <class Fill>
  void advance_to(std::uint64_t epoch, const Fill& fill) {
    if (epoch <= next_epoch_ || !recording()) return;
    fill(open_row());
    close_through(epoch);
  }

  /// Close the final (possibly partial) epoch. Idempotent.
  template <class Fill>
  void finish(const Fill& fill) {
    if (!recording()) return;
    fill(open_row());
    finished_ = true;
  }

  [[nodiscard]] std::size_t rows() const noexcept { return epochs_.size(); }
  [[nodiscard]] bool enabled() const noexcept { return !columns_.empty(); }

  /// Materialize into a self-contained table.
  [[nodiscard]] SeriesTable table(double epoch_seconds) const;

 private:
  [[nodiscard]] bool recording() const noexcept {
    return enabled() && !finished_;
  }
  /// Append a row for next_epoch_ and return it for the caller to fill.
  std::span<std::uint64_t> open_row();
  /// The row just filled closes next_epoch_; repeat it for every quiet
  /// epoch before `epoch`.
  void close_through(std::uint64_t epoch);

  std::vector<std::string> columns_;
  std::vector<std::uint64_t> epochs_;
  std::vector<std::uint64_t> values_;  // row-major cumulative
  std::uint64_t next_epoch_ = 0;       // first epoch not yet closed
  bool finished_ = false;
};

}  // namespace starcdn::obs
