// Deterministic, fast pseudo-random number generation.
//
// The library uses xoshiro256++ for reproducible dataset generation and
// weight initialization. Every stochastic component takes an explicit seed so
// experiments are replayable; there is no global RNG state.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "klinq/common/int128.hpp"

namespace klinq {

/// xoshiro256++ 1.0 by Blackman & Vigna (public domain reference algorithm).
/// Satisfies UniformRandomBitGenerator, so it composes with <random> too.
class xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the state from a 64-bit seed via splitmix64 expansion.
  explicit xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ull) noexcept {
    std::uint64_t x = seed;
    for (auto& word : state_) {
      // splitmix64: guarantees a non-degenerate (non-zero) state expansion.
      x += 0x9E3779B97F4A7C15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      word = z ^ (z >> 31);
    }
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n) noexcept {
    // Multiply-shift bounded generation (Lemire); negligible bias for our use.
    const uint128 product = static_cast<uint128>((*this)()) * n;
    return static_cast<std::uint64_t>(product >> 64);
  }

  /// Standard normal via Box–Muller with cached second deviate.
  double normal() noexcept {
    if (has_cached_) {
      has_cached_ = false;
      return cached_;
    }
    double u1 = uniform();
    while (u1 <= 0.0) u1 = uniform();
    const double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    constexpr double two_pi = 6.283185307179586476925286766559;
    cached_ = radius * std::sin(two_pi * u2);
    has_cached_ = true;
    return radius * std::cos(two_pi * u2);
  }

  /// Advances the generator exactly as `count` calls to normal() would,
  /// without the log/sqrt/sin/cos: a cached deviate is consumed first, each
  /// skipped pair keeps normal()'s `u1 <= 0` redraw, and an odd remainder
  /// runs one real normal() so the cache matches too.
  void discard_normals(std::size_t count) noexcept {
    if (count == 0) return;
    if (has_cached_) {
      has_cached_ = false;
      --count;
    }
    for (std::size_t pair = count / 2; pair > 0; --pair) {
      while (uniform() <= 0.0) {
      }
      (*this)();  // u2
    }
    if (count % 2 != 0) normal();
  }

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Bernoulli draw with probability p of returning true.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Exponentially distributed deviate with the given mean (mean > 0).
  double exponential(double mean) noexcept {
    double u = uniform();
    while (u <= 0.0) u = uniform();
    return -mean * std::log(u);
  }

  /// Derive an independent child generator (for per-worker streams).
  xoshiro256 split() noexcept { return xoshiro256((*this)()); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double cached_ = 0.0;
  bool has_cached_ = false;
};

}  // namespace klinq
