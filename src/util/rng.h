// Deterministic random number generation for reproducible simulations.
//
// Every stochastic component in StarCDN (workload synthesis, SpaceGEN
// sampling, scheduler tie-breaks, failure injection) takes an explicit
// `Rng&` so that a single seed fully determines a run. The generator is
// xoshiro256**, which is faster than std::mt19937_64 and has no observable
// bias for our use; distributions are implemented inline so results are
// identical across standard libraries (libstdc++/libc++ differ in their
// std::*_distribution implementations).
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "util/hash.h"

namespace starcdn::util {

/// xoshiro256** 1.0 (Blackman & Vigna), seeded via splitmix64 expansion.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eedc0ffee123456ULL) noexcept {
    // Expand the 64-bit seed into 256 bits of state; splitmix64 guarantees
    // distinct, well-mixed words even for adjacent seeds.
    std::uint64_t s = seed;
    for (auto& w : state_) {
      s += 0x9e3779b97f4a7c15ULL;
      w = splitmix64(s);
    }
  }

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1). 53 bits of randomness.
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Lemire's multiply-shift rejection method.
  [[nodiscard]] std::uint64_t below(std::uint64_t n) noexcept {
    if (n <= 1) return 0;
    // Simple modulo with rejection of the biased tail r < (2^64 - n) mod n,
    // which r >= n clears without the division.
    for (;;) {
      const std::uint64_t r = (*this)();
      if (r >= n || r >= (~n + 1) % n) return r % n;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  [[nodiscard]] bool bernoulli(double p) noexcept { return uniform() < p; }

  /// The two uniforms one Box–Muller normal consumes; u1 is in (0, 1],
  /// which avoids log(0). A braced list draws them left to right.
  struct NormalDraw {
    double u1, u2;
  };
  [[nodiscard]] NormalDraw normal_draw() noexcept {
    return {1.0 - uniform(), uniform()};
  }

  /// Box–Muller transform of one draw: a caller can take the draw to keep
  /// its stream in step and transform it only when the value is needed.
  [[nodiscard]] static double normal_of(NormalDraw d, double mean = 0.0,
                                        double stddev = 1.0) noexcept {
    const double z = std::sqrt(-2.0 * std::log(d.u1)) *
                     std::cos(2.0 * std::numbers::pi * d.u2);
    return mean + stddev * z;
  }
  [[nodiscard]] static double lognormal_of(NormalDraw d, double mu,
                                           double sigma) noexcept {
    return std::exp(normal_of(d, mu, sigma));
  }

  /// Standard normal via Box–Muller (cached second value omitted to stay
  /// stateless; cost is acceptable at simulation scale).
  [[nodiscard]] double normal(double mean = 0.0, double stddev = 1.0) noexcept {
    return normal_of(normal_draw(), mean, stddev);
  }

  [[nodiscard]] double lognormal(double mu, double sigma) noexcept {
    return lognormal_of(normal_draw(), mu, sigma);
  }

  [[nodiscard]] double exponential(double rate) noexcept {
    return -std::log(1.0 - uniform()) / rate;
  }

  /// Geometric-ish Pareto sample with shape `alpha` and scale `xmin`, and
  /// its transform of one uniform draw `u`.
  [[nodiscard]] double pareto(double xmin, double alpha) noexcept {
    return pareto_of(uniform(), xmin, alpha);
  }
  [[nodiscard]] static double pareto_of(double u, double xmin,
                                        double alpha) noexcept {
    return xmin / std::pow(1.0 - u, 1.0 / alpha);
  }

  /// Derive an independent stream, e.g. one per satellite or per city.
  [[nodiscard]] Rng fork(std::uint64_t stream_id) noexcept {
    return Rng(hash_combine((*this)(), splitmix64(stream_id)));
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace starcdn::util
