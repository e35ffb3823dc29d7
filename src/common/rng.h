// Deterministic pseudo-random number generation.
//
// Every stochastic component (trace generator, scheduler tie-breaking,
// failure injection) draws from an explicitly seeded Rng so that runs
// are bit-for-bit reproducible. The engine is xoshiro256** — fast,
// high quality, and trivially copyable so tests can fork streams.
#pragma once

#include <cmath>
#include <cstdint>

namespace kd {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { Seed(seed); }

  void Seed(std::uint64_t seed) {
    // SplitMix64 to spread a single seed across the state.
    std::uint64_t z = seed;
    for (auto& s : state_) {
      z += 0x9E3779B97F4A7C15ULL;
      std::uint64_t w = z;
      w = (w ^ (w >> 30)) * 0xBF58476D1CE4E5B9ULL;
      w = (w ^ (w >> 27)) * 0x94D049BB133111EBULL;
      s = w ^ (w >> 31);
    }
  }

  std::uint64_t Next() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, n). n must be > 0.
  std::uint64_t UniformInt(std::uint64_t n) {
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -n % n;
    for (;;) {
      const std::uint64_t r = Next();
      if (r >= threshold) return r % n;
    }
  }

  // Uniform in [lo, hi] inclusive.
  std::int64_t UniformRange(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    UniformInt(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  // Uniform in [0, 1).
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  double UniformDouble(double lo, double hi) {
    return lo + UniformDouble() * (hi - lo);
  }

  bool Bernoulli(double p) { return UniformDouble() < p; }

  // Exponential with the given mean (inter-arrival modelling).
  double Exponential(double mean) {
    double u;
    do {
      u = UniformDouble();
    } while (u <= 0.0);
    return -mean * std::log(u);
  }

  // Pareto (heavy tail) with scale x_m and shape alpha.
  double Pareto(double x_m, double alpha) {
    double u;
    do {
      u = UniformDouble();
    } while (u <= 0.0);
    return x_m / std::pow(u, 1.0 / alpha);
  }

  double Normal(double mean, double stddev) {
    // Box-Muller; one value per call keeps the stream independent of
    // caller interleaving.
    double u1;
    do {
      u1 = UniformDouble();
    } while (u1 <= 0.0);
    const double u2 = UniformDouble();
    const double r = std::sqrt(-2.0 * std::log(u1));
    return mean + stddev * r * std::cos(6.28318530717958647692 * u2);
  }

  // Log-normal parameterized by the mean/stddev of the underlying normal.
  double LogNormal(double mu, double sigma) {
    return std::exp(Normal(mu, sigma));
  }

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace kd
