// Streaming statistics accumulators used by metrics collection and benches.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace starcdn::util {

/// Welford's online algorithm: numerically stable mean/variance plus
/// min/max, O(1) memory. Used for link-delay statistics (Table 1) and
/// anywhere we only need moments.
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Stores samples (optionally reservoir-subsampled) and answers quantile /
/// CDF queries. Used for the latency CDFs of Fig. 10.
class QuantileSampler {
 public:
  /// `max_samples == 0` keeps everything; otherwise reservoir-samples.
  explicit QuantileSampler(std::size_t max_samples = 0) noexcept
      : max_samples_(max_samples) {}

  /// Count one sample and return its cell, or nullptr when the reservoir
  /// drops it: Algorithm R picks the cell from the count alone, so a caller
  /// can skip computing a dropped sample. Write the cell before the next call.
  [[nodiscard]] double* next_slot();
  void add(double x) {
    if (double* slot = next_slot()) *slot = x;
  }

  /// Quantile in [0, 1]; linear interpolation between order statistics.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }

  /// Empirical CDF value P(X <= x).
  [[nodiscard]] double cdf(double x) const;

  [[nodiscard]] std::size_t count() const noexcept { return total_; }
  [[nodiscard]] bool empty() const noexcept { return total_ == 0; }
  [[nodiscard]] const std::vector<double>& samples() const noexcept {
    return samples_;
  }

 private:
  void ensure_sorted() const;

  std::size_t max_samples_;
  std::size_t total_ = 0;
  mutable bool sorted_ = false;
  mutable std::vector<double> samples_;
  std::uint64_t reservoir_state_ = 0x9e3779b97f4a7c15ULL;
};

}  // namespace starcdn::util
