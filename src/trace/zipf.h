// Weighted discrete sampling for the workload model.
//
// CDN object popularity is famously Zipf-like. The workload model gives each
// object a Zipf base weight directly (workload.cpp) and draws from the
// resulting per-city popularity tables, the minute weights and the home-city
// weights with this one sampler.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace starcdn::trace {

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
