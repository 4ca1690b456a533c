// Small numeric helpers shared across modules.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "klinq/common/error.hpp"

namespace klinq {

/// Ceiling of log2(n) for n >= 1 (adder-tree depth of an n-input reduction).
constexpr int ceil_log2(std::uint64_t n) noexcept {
  int bits = 0;
  std::uint64_t capacity = 1;
  while (capacity < n) {
    capacity <<= 1;
    ++bits;
  }
  return bits;
}

/// True when n is a power of two (n > 0).
constexpr bool is_power_of_two(std::uint64_t n) noexcept {
  return n != 0 && (n & (n - 1)) == 0;
}

/// Exponent e such that 2^e is the closest power of two to |x| (x != 0).
/// Used by the hardware normalizer: division by sigma becomes a right shift.
inline int nearest_power_of_two_exponent(double x) {
  KLINQ_REQUIRE(std::isfinite(x) && x > 0.0,
                "power-of-two approximation requires finite x > 0");
  return static_cast<int>(std::lround(std::log2(x)));
}

/// Numerically stable mean of a span (0 for empty input).
inline double mean(std::span<const double> values) noexcept {
  if (values.empty()) return 0.0;
  double acc = 0.0;
  for (const double v : values) acc += v;
  return acc / static_cast<double>(values.size());
}

/// Population variance (denominator N); 0 for fewer than 1 element.
inline double variance(std::span<const double> values) noexcept {
  if (values.empty()) return 0.0;
  const double mu = mean(values);
  double acc = 0.0;
  for (const double v : values) acc += (v - mu) * (v - mu);
  return acc / static_cast<double>(values.size());
}

/// Geometric mean of positive values; throws on non-positive input.
inline double geometric_mean(std::span<const double> values) {
  KLINQ_REQUIRE(!values.empty(), "geometric mean of empty set");
  double log_sum = 0.0;
  for (const double v : values) {
    KLINQ_REQUIRE(v > 0.0, "geometric mean requires positive values");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// Logistic sigmoid with guarded exponent.
inline double sigmoid(double x) noexcept {
  if (x >= 0.0) {
    const double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  const double z = std::exp(x);
  return z / (1.0 + z);
}

/// Standard normal CDF (used to predict fidelity from SNR in tests).
inline double normal_cdf(double x) noexcept {
  return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

/// Welford online mean/variance accumulator.
class running_stats {
 public:
  void add(double x) noexcept {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
  }

  std::size_t count() const noexcept { return count_; }
  double mean() const noexcept { return mean_; }

  /// Population variance; 0 when fewer than two samples.
  double variance() const noexcept {
    return count_ > 0 ? m2_ / static_cast<double>(count_) : 0.0;
  }

  double stddev() const noexcept { return std::sqrt(variance()); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace klinq
