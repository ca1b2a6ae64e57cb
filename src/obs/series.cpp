#include "obs/series.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <ostream>

namespace starcdn::obs {

std::size_t SeriesTable::column(const std::string& name) const {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == name) return i;
  }
  return std::numeric_limits<std::size_t>::max();
}

void SeriesTable::write_csv(std::ostream& os,
                            const std::vector<Derived>& derived) const {
  os << "epoch,t_end_s";
  for (const auto& c : columns) os << ',' << c;
  for (const auto& d : derived) os << ',' << d.name;
  os << '\n';
  const std::streamsize prev = os.precision(6);
  const auto flags = os.flags();
  os.setf(std::ios::fixed, std::ios::floatfield);
  for (std::size_t r = 0; r < rows(); ++r) {
    os << epochs[r] << ','
       << static_cast<double>(epochs[r] + 1) * epoch_seconds;
    for (std::size_t c = 0; c < columns.size(); ++c) {
      os << ',' << delta(r, c);
    }
    for (const auto& d : derived) {
      os << ',' << d.fn(*this, r);
    }
    os << '\n';
  }
  os.precision(prev);
  os.flags(flags);
}

void SeriesTable::write_json(std::ostream& os) const {
  os << "{\"epoch_seconds\":" << epoch_seconds << ",\"columns\":[";
  for (std::size_t c = 0; c < columns.size(); ++c) {
    if (c != 0) os << ',';
    os << '"' << columns[c] << '"';
  }
  os << "],\"epochs\":[";
  for (std::size_t r = 0; r < rows(); ++r) {
    if (r != 0) os << ',';
    os << epochs[r];
  }
  os << "],\"deltas\":[";
  for (std::size_t r = 0; r < rows(); ++r) {
    if (r != 0) os << ',';
    os << '[';
    for (std::size_t c = 0; c < columns.size(); ++c) {
      if (c != 0) os << ',';
      os << delta(r, c);
    }
    os << ']';
  }
  os << "]}";
}

std::span<std::uint64_t> EpochSeries::open_row() {
  epochs_.push_back(next_epoch_);
  values_.resize(values_.size() + columns_.size());
  return {values_.data() + values_.size() - columns_.size(), columns_.size()};
}

void EpochSeries::close_through(std::uint64_t epoch) {
  const std::size_t n = columns_.size();
  while (++next_epoch_ < epoch) {
    epochs_.push_back(next_epoch_);
    const std::size_t prev = values_.size() - n;
    values_.resize(values_.size() + n);
    std::copy_n(values_.begin() + static_cast<std::ptrdiff_t>(prev), n,
                values_.begin() + static_cast<std::ptrdiff_t>(prev + n));
  }
}

SeriesTable EpochSeries::table(double epoch_seconds) const {
  SeriesTable t;
  t.epoch_seconds = epoch_seconds;
  if (!enabled()) return t;
  t.columns = columns_;
  t.epochs = epochs_;
  t.values = values_;
  return t;
}

}  // namespace starcdn::obs
