// Weighted discrete sampling for the workload model.
//
// CDN object popularity is famously Zipf-like. The workload model gives each
// object a Zipf base weight directly (workload.cpp) and draws from the
// resulting per-city popularity tables, the minute weights and the home-city
// weights with this one sampler.
//
// A draw maps u = uniform() * total to the first CDF entry above u by Chen &
// Asau's cutpoint method (Devroye 1986, §III.2.4): guide slot j of n holds
// the first entry above j * total / n; from u's slot a lookup steps down
// while the entry before is above u, then up while its own is at most u.
// Both walks pass only entries upper_bound passes, so from any slot the
// answer is exactly min(upper_bound(cdf, u), n - 1).
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace starcdn::trace {

/// Sampler over finite weights, negative ones counting as zero. Throws
/// std::invalid_argument on a non-finite weight or a sum of 0 or infinity.
class DiscreteSampler {
 public:
  explicit DiscreteSampler(const std::vector<double>& weights);

  [[nodiscard]] std::size_t sample(util::Rng& rng) const {
    return index_of(rng.uniform() * total_);
  }
  /// min(upper_bound(cdf, u), size() - 1), for u in [0, total].
  [[nodiscard]] std::size_t index_of(double u) const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;
  double total_ = 0.0;
};

}  // namespace starcdn::trace
