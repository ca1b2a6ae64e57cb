#include "trace/zipf.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace starcdn::trace {

ZipfSampler::ZipfSampler(std::size_t n, double alpha) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n == 0");
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), alpha);
    cdf_[k] = acc;
  }
  for (auto& v : cdf_) v /= acc;
  cdf_.back() = 1.0;  // guard against rounding
}

std::size_t ZipfSampler::sample(util::Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin());
}

double ZipfSampler::pmf(std::size_t rank) const {
  if (rank >= cdf_.size()) return 0.0;
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

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
