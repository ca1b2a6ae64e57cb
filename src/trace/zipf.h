// Zipf(ian) popularity sampling.
//
// CDN object popularity is famously Zipf-like; the workload model uses this
// sampler to assign base popularities and to draw i.i.d. requests from
// per-city popularity tables.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace starcdn::trace {

/// Samples ranks 0..n-1 with P(rank k) proportional to 1/(k+1)^alpha.
/// Precomputes the CDF (O(n) memory); suitable up to a few million ranks.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double alpha);

  [[nodiscard]] std::size_t sample(util::Rng& rng) const;
  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }

  /// Probability mass of a rank.
  [[nodiscard]] double pmf(std::size_t rank) const;

 private:
  std::vector<double> cdf_;
};

/// Weighted discrete sampler over arbitrary non-negative weights
/// (CDF + binary search). Used for per-city object popularity tables.
class DiscreteSampler {
 public:
  explicit DiscreteSampler(const std::vector<double>& weights);

  [[nodiscard]] std::size_t sample(util::Rng& rng) const;
  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
  double total_ = 0.0;
};

}  // namespace starcdn::trace
