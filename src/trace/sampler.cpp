#include "trace/sampler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace starcdn::trace {

DiscreteSampler::DiscreteSampler(const std::vector<double>& weights) {
  const std::size_t n = weights.size();
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(weights[i])) {
      throw std::invalid_argument("DiscreteSampler: weight " +
                                  std::to_string(i) + " is " +
                                  std::to_string(weights[i]));
    }
    acc += std::max(0.0, weights[i]);
    cdf_[i] = acc;
  }
  total_ = acc;
  if (!(acc > 0.0) || !std::isfinite(acc)) {
    throw std::invalid_argument("DiscreteSampler: weights sum to " +
                                std::to_string(acc));
  }
  guide_.resize(n);
  for (std::size_t j = 0, k = 0; j < n; ++j) {
    const double cut = static_cast<double>(j) / static_cast<double>(n) * total_;
    while (k + 1 < n && cdf_[k] <= cut) ++k;
    guide_[j] = static_cast<std::uint32_t>(k);
  }
}

std::size_t DiscreteSampler::index_of(double u) const noexcept {
  const std::size_t n = cdf_.size();
  std::size_t k = guide_[std::min(
      n - 1, static_cast<std::size_t>(u / total_ * static_cast<double>(n)))];
  while (k > 0 && cdf_[k - 1] > u) --k;
  while (k + 1 < n && cdf_[k] <= u) ++k;
  return k;
}

}  // namespace starcdn::trace
