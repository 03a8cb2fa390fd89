// Deterministic random number generation.
//
// Every stochastic component of the simulation draws from an Rng seeded from
// the experiment configuration, so runs are reproducible bit-for-bit. The
// engine is splitmix64-seeded xoshiro256**, small and fast.
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>

namespace tango {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { Seed(seed); }

  void Seed(std::uint64_t seed) {
    // splitmix64 to spread a possibly low-entropy seed over the full state.
    auto next = [&seed]() {
      seed += 0x9E3779B97F4A7C15ULL;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      return z ^ (z >> 31);
    };
    for (auto& s : state_) s = next();
  }

  std::uint64_t NextU64() {
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

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(NextU64() % range);
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

  bool Bernoulli(double p) { return NextDouble() < p; }

  /// Standard normal via Box-Muller.
  double Normal(double mean = 0.0, double stddev = 1.0) {
    double u1 = NextDouble();
    double u2 = NextDouble();
    if (u1 < 1e-300) u1 = 1e-300;
    const double z =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
    return mean + stddev * z;
  }

  /// Exponential with the given rate (events per unit).
  double Exponential(double rate) {
    double u = NextDouble();
    if (u < 1e-300) u = 1e-300;
    return -std::log(u) / rate;
  }

  /// Bounded Pareto-ish heavy tail used for service demand sampling.
  double Pareto(double scale, double shape) {
    double u = NextDouble();
    if (u < 1e-300) u = 1e-300;
    return scale / std::pow(u, 1.0 / shape);
  }

 private:
  static constexpr std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4] = {};
};

}  // namespace tango
