#include "trace/sampler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace starcdn::trace {

DiscreteSampler::DiscreteSampler(std::vector<double> weights)
    : cdf_(std::move(weights)) {
  const std::size_t n = cdf_.size();
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(cdf_[i])) {
      throw std::invalid_argument("DiscreteSampler: weight " +
                                  std::to_string(i) + " is " +
                                  std::to_string(cdf_[i]));
    }
    acc += std::max(0.0, cdf_[i]);
    cdf_[i] = acc;
  }
  total_ = acc;
  if (!(acc > 0.0) || !std::isfinite(acc)) {
    throw std::invalid_argument("DiscreteSampler: weights sum to " +
                                std::to_string(acc));
  }
  // Entry k's scaled CDF floor(cdf_[k] * n / total_) is the last slot whose
  // cut it reaches, so the next slot starts at entry k + 1 or later. Each
  // entry marks that slot (a later entry overwrites) and a running max
  // carries the marks over the unmarked slots: no division per slot. The
  // min, n first, also sends the inf or NaN scale of a subnormal total past
  // every slot.
  guide_.assign(n, 0);
  const double scale = static_cast<double>(n) / total_;
  for (std::size_t k = 0; k < n; ++k) {
    const double last = std::min(static_cast<double>(n), cdf_[k] * scale);
    const auto j = static_cast<std::size_t>(last) + 1;
    if (j < n) guide_[j] = static_cast<std::uint32_t>(k + 1);
  }
  for (std::size_t j = 1; j < n; ++j) {
    guide_[j] = std::max(guide_[j], guide_[j - 1]);
  }
}

namespace {

/// Draws per prefetch group: enough misses in flight to hide most of the
/// latency, few enough that the group's lines stay in L1.
constexpr std::size_t kGroup = 32;

}  // namespace

void DiscreteSampler::index_n(std::span<const double> u,
                              std::span<std::uint32_t> out) const noexcept {
  for (std::size_t base = 0; base < u.size(); base += kGroup) {
    const std::size_t m = std::min(kGroup, u.size() - base);
    const double* g = u.data() + base;
    std::uint32_t* k = out.data() + base;
    for (std::size_t i = 0; i < m; ++i) {
      k[i] = static_cast<std::uint32_t>(slot(g[i]));
      __builtin_prefetch(&guide_[k[i]]);
    }
    for (std::size_t i = 0; i < m; ++i) {
      k[i] = guide_[k[i]];
      __builtin_prefetch(&cdf_[k[i]]);
    }
    for (std::size_t i = 0; i < m; ++i) {
      k[i] = static_cast<std::uint32_t>(walk(k[i], g[i]));
    }
  }
}

void DiscreteSampler::sample_n(util::Rng& rng,
                               std::span<std::uint32_t> out) const {
  double u[kGroup] = {};
  for (std::size_t base = 0; base < out.size(); base += kGroup) {
    const std::size_t m = std::min(kGroup, out.size() - base);
    for (std::size_t i = 0; i < m; ++i) u[i] = rng.uniform() * total_;
    index_n({u, m}, out.subspan(base, m));
  }
}

}  // namespace starcdn::trace
