// Weighted discrete sampling for the workload model.
//
// CDN object popularity is famously Zipf-like. The workload model gives each
// object a Zipf base weight directly (workload.cpp) and draws from the
// resulting per-city popularity tables, the minute weights and the home-city
// weights with this one sampler.
//
// A draw maps u = uniform() * total to the first CDF entry above u by Chen &
// Asau's cutpoint method (Devroye 1986, §III.2.4): guide slot j of n holds
// the first entry at or above j * total / n. From u's slot a lookup steps
// down while the entry before is above u, then up while its own is at most u.
// Both walks pass only entries upper_bound passes, so from any slot the
// answer is exactly min(upper_bound(cdf, u), n - 1).
//
// A table of 100k+ entries does not stay in cache, and a lone draw is a
// chain of dependent misses: guide slot, then CDF entry. index_n and
// sample_n run the same lookup over a group of draws at a time, prefetching
// every guide slot of the group, then every CDF entry, then walking.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.h"

namespace starcdn::trace {

/// Sampler over finite weights, negative ones counting as zero. Throws
/// std::invalid_argument on a non-finite weight or a sum of 0 or infinity.
/// A weights vector moved in becomes the CDF, so it is not held twice.
class DiscreteSampler {
 public:
  explicit DiscreteSampler(std::vector<double> weights);

  [[nodiscard]] std::size_t sample(util::Rng& rng) const {
    return index_of(rng.uniform() * total_);
  }
  /// out[i] = the i-th of out.size() successive sample(rng) calls; `rng`
  /// ends in the state those calls leave it in.
  void sample_n(util::Rng& rng, std::span<std::uint32_t> out) const;

  /// min(upper_bound(cdf, u), size() - 1), for u in [0, total].
  [[nodiscard]] std::size_t index_of(double u) const noexcept {
    return walk(guide_[slot(u)], u);
  }
  /// out[i] = index_of(u[i]); the spans have equal length.
  void index_n(std::span<const double> u,
               std::span<std::uint32_t> out) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }

 private:
  [[nodiscard]] std::size_t slot(double u) const noexcept {
    const std::size_t n = cdf_.size();
    const auto j =
        static_cast<std::size_t>(u / total_ * static_cast<double>(n));
    return j < n - 1 ? j : n - 1;
  }
  [[nodiscard]] std::size_t walk(std::size_t k, double u) const noexcept {
    while (k > 0 && cdf_[k - 1] > u) --k;
    while (k + 1 < cdf_.size() && cdf_[k] <= u) ++k;
    return k;
  }

  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;
  double total_ = 0.0;
};

}  // namespace starcdn::trace
