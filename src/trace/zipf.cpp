#include "trace/zipf.h"

#include <algorithm>
#include <stdexcept>

namespace starcdn::trace {

DiscreteSampler::DiscreteSampler(const std::vector<double>& weights) {
  cdf_.resize(weights.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += std::max(0.0, weights[i]);
    cdf_[i] = acc;
  }
  total_ = acc;
  if (acc <= 0.0) {
    throw std::invalid_argument("DiscreteSampler: all weights zero");
  }
}

std::size_t DiscreteSampler::sample(util::Rng& rng) const {
  const double u = rng.uniform() * total_;
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                  cdf_.size() - 1);
}

}  // namespace starcdn::trace
