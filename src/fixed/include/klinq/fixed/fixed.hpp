// Signed fixed-point arithmetic with hardware (saturating) semantics.
//
// fixed<I, F> models a two's-complement register with I integer bits
// (including the sign bit) and F fractional bits — the paper's datapath is
// Q16.16, i.e. fixed<16, 16>. All arithmetic saturates on overflow, exactly
// as the FPGA activation stage clamps out-of-range sums, so the software
// model is bit-accurate with respect to the RTL reference:
//
//   * conversion from double rounds to nearest (ties away from zero),
//   * multiplication keeps a full 2F-bit intermediate, then rounds-to-nearest
//     back to F fractional bits and saturates,
//   * addition/subtraction saturate at the I+F-bit boundary,
//   * shifts are arithmetic; left shifts saturate.
//
// Storage is int64_t regardless of width, which keeps the template simple
// and lets the adder-tree accumulator (fixed_accumulator) sum thousands of
// terms without intermediate overflow — matching hardware accumulators that
// are wider than the operand registers.
#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>
#include <string>

#include "klinq/common/error.hpp"
#include "klinq/common/int128.hpp"

namespace klinq::fx {

/// Round-to-nearest, ties away from zero — bit-exact with std::llround for
/// |value| < 2^62, without the libm call. Truncation toward zero is exact,
/// and for |value| < 2^53 the remainder `value - trunc(value)` is computed
/// exactly (the fractional bits of a double are representable on their own),
/// so the half-way comparison is exact too; for |value| >= 2^53 doubles are
/// already integers and the remainder is exactly zero. This is the per-sample
/// hot path of fixed_frontend::quantize_trace (1000 calls per shot).
constexpr std::int64_t round_half_away_from_zero(double value) noexcept {
  const auto truncated = static_cast<std::int64_t>(value);
  const double remainder = value - static_cast<double>(truncated);
  // Branchless: the two comparisons are mutually exclusive, and on real ADC
  // data the round direction is unpredictable — taken as branches they cost
  // a misprediction roughly every other sample (~5x the whole conversion).
  return truncated + (remainder >= 0.5) - (remainder <= -0.5);
}

template <int IntBits, int FracBits>
class fixed {
  static_assert(IntBits >= 2, "need at least sign bit plus one integer bit");
  static_assert(FracBits >= 0, "fractional bits must be non-negative");
  static_assert(IntBits + FracBits <= 62,
                "total width must leave headroom in int64 intermediates");

 public:
  static constexpr int int_bits = IntBits;
  static constexpr int frac_bits = FracBits;
  static constexpr int total_bits = IntBits + FracBits;

  /// Largest representable raw value: 2^(I+F-1) - 1.
  static constexpr std::int64_t raw_max =
      (std::int64_t{1} << (total_bits - 1)) - 1;
  static constexpr std::int64_t raw_min = -raw_max - 1;

  /// Value of one least-significant fractional step.
  static constexpr double resolution() noexcept {
    return 1.0 / static_cast<double>(std::int64_t{1} << FracBits);
  }

  constexpr fixed() noexcept = default;

  /// Builds from a raw register value (no scaling); saturates.
  static constexpr fixed from_raw(std::int64_t raw) noexcept {
    fixed f;
    f.raw_ = saturate(raw);
    return f;
  }

  /// Rounds a real number to the nearest representable value (ties away from
  /// zero, matching llround bit for bit); saturates.
  static constexpr fixed from_double(double value) noexcept {
    if (value != value) return fixed{};  // hardware has no NaN; define as 0
    const double scaled =
        value * static_cast<double>(std::int64_t{1} << FracBits);
    if (scaled >= static_cast<double>(raw_max)) return from_raw(raw_max);
    if (scaled <= static_cast<double>(raw_min)) return from_raw(raw_min);
    return from_raw(round_half_away_from_zero(scaled));
  }

  static constexpr fixed from_int(std::int64_t value) noexcept {
    // Saturating shift into position.
    if (value > (raw_max >> FracBits)) return from_raw(raw_max);
    if (value < (raw_min >> FracBits)) return from_raw(raw_min);
    return from_raw(value << FracBits);
  }

  static constexpr fixed max_value() noexcept { return from_raw(raw_max); }
  static constexpr fixed min_value() noexcept { return from_raw(raw_min); }
  static constexpr fixed zero() noexcept { return fixed{}; }
  static constexpr fixed one() noexcept { return from_int(1); }

  constexpr std::int64_t raw() const noexcept { return raw_; }

  double to_double() const noexcept {
    return static_cast<double>(raw_) /
           static_cast<double>(std::int64_t{1} << FracBits);
  }

  /// Truncation toward negative infinity (hardware floor of the register).
  constexpr std::int64_t to_int_floor() const noexcept {
    return raw_ >> FracBits;
  }

  /// True when this value sits on the saturation rails.
  constexpr bool is_saturated() const noexcept {
    return raw_ == raw_max || raw_ == raw_min;
  }

  /// Sign bit, as the RTL ReLU checks it.
  constexpr bool sign_bit() const noexcept { return raw_ < 0; }

  constexpr fixed operator-() const noexcept { return from_raw(-raw_); }

  friend constexpr fixed operator+(fixed a, fixed b) noexcept {
    return from_raw(a.raw_ + b.raw_);
  }
  friend constexpr fixed operator-(fixed a, fixed b) noexcept {
    return from_raw(a.raw_ - b.raw_);
  }

  /// Full-precision multiply, round-to-nearest back to F fractional bits.
  friend constexpr fixed operator*(fixed a, fixed b) noexcept {
    const klinq::int128 wide =
        static_cast<int128>(a.raw_) * static_cast<int128>(b.raw_);
    return from_raw(round_shift_right(wide, FracBits));
  }

  /// Division is provided for completeness/tests; the hardware datapath never
  /// divides (normalization uses power-of-two shifts instead).
  friend fixed operator/(fixed a, fixed b) {
    KLINQ_REQUIRE(b.raw_ != 0, "fixed-point division by zero");
    const klinq::int128 widened = static_cast<int128>(a.raw_) << FracBits;
    return from_raw(static_cast<std::int64_t>(widened / b.raw_));
  }

  fixed& operator+=(fixed other) noexcept { return *this = *this + other; }
  fixed& operator-=(fixed other) noexcept { return *this = *this - other; }
  fixed& operator*=(fixed other) noexcept { return *this = *this * other; }

  /// Arithmetic shift right with round-to-nearest — the normalizer's
  /// "divide by 2^k" operation.
  constexpr fixed shifted_right(int k) const noexcept {
    if (k <= 0) return shifted_left(-k);
    const klinq::int128 wide = static_cast<int128>(raw_);
    return from_raw(round_shift_right(wide, k));
  }

  /// Saturating shift left ("multiply by 2^k").
  constexpr fixed shifted_left(int k) const noexcept {
    if (k <= 0) return k == 0 ? *this : shifted_right(-k);
    klinq::int128 wide = static_cast<int128>(raw_);
    wide <<= k;
    if (wide > raw_max) return from_raw(raw_max);
    if (wide < raw_min) return from_raw(raw_min);
    return from_raw(static_cast<std::int64_t>(wide));
  }

  friend constexpr auto operator<=>(fixed a, fixed b) noexcept = default;

  std::string to_string() const {
    return std::to_string(to_double()) + "q" + std::to_string(IntBits) + "." +
           std::to_string(FracBits);
  }

 private:
  static constexpr std::int64_t saturate(std::int64_t raw) noexcept {
    if (raw > raw_max) return raw_max;
    if (raw < raw_min) return raw_min;
    return raw;
  }

  /// Round-to-nearest (ties away from zero) arithmetic right shift.
  /// Computed on the magnitude so that exact multiples stay exact for
  /// negative values (a plain floor-shift after subtracting half would
  /// overshoot them by one LSB).
  static constexpr std::int64_t round_shift_right(klinq::int128 wide,
                                                  int shift) noexcept {
    if (shift == 0) {
      return saturate_wide(wide);
    }
    const bool negative = wide < 0;
    const klinq::uint128 magnitude =
        negative ? static_cast<klinq::uint128>(-wide)
                 : static_cast<klinq::uint128>(wide);
    const klinq::uint128 half = klinq::uint128{1} << (shift - 1);
    const klinq::uint128 rounded = (magnitude + half) >> shift;
    const klinq::int128 result =
        negative ? -static_cast<klinq::int128>(rounded)
                 : static_cast<klinq::int128>(rounded);
    return saturate_wide(result);
  }

  static constexpr std::int64_t saturate_wide(klinq::int128 wide) noexcept {
    if (wide > raw_max) return raw_max;
    if (wide < raw_min) return raw_min;
    return static_cast<std::int64_t>(wide);
  }

  std::int64_t raw_ = 0;
};

/// The paper's datapath format: 32-bit, 16 integer + 16 fractional bits.
using q16_16 = fixed<16, 16>;
/// Narrow formats exercised by the word-width ablation.
using q8_8 = fixed<8, 8>;
using q12_12 = fixed<12, 12>;
/// Wide reference format for error analysis.
using q24_24 = fixed<24, 24>;

/// Re-quantize between formats. Narrowing the fraction rounds to nearest
/// (ties away from zero, computed on the magnitude so exact multiples stay
/// exact for negative values).
template <class ToFixed, class FromFixed>
constexpr ToFixed fixed_cast(FromFixed value) noexcept {
  const int shift = FromFixed::frac_bits - ToFixed::frac_bits;
  klinq::int128 raw = value.raw();
  if (shift > 0) {
    const bool negative = raw < 0;
    klinq::uint128 magnitude = negative ? static_cast<klinq::uint128>(-raw)
                                        : static_cast<klinq::uint128>(raw);
    magnitude = (magnitude + (klinq::uint128{1} << (shift - 1))) >> shift;
    raw = negative ? -static_cast<klinq::int128>(magnitude)
                   : static_cast<klinq::int128>(magnitude);
  } else if (shift < 0) {
    raw <<= -shift;
  }
  if (raw > ToFixed::raw_max) return ToFixed::from_raw(ToFixed::raw_max);
  if (raw < ToFixed::raw_min) return ToFixed::from_raw(ToFixed::raw_min);
  return ToFixed::from_raw(static_cast<std::int64_t>(raw));
}

/// Wide accumulator for adder trees: sums raw values of fixed<I,F> in an
/// int64 register (hardware accumulators are wider than operands), then
/// saturates once at extraction — matching a single overflow check at the
/// tree root rather than per-stage clamping.
template <class Fixed>
class fixed_accumulator {
 public:
  constexpr void add(Fixed value) noexcept { sum_ += value.raw(); }
  constexpr void add_raw(std::int64_t raw) noexcept { sum_ += raw; }
  constexpr Fixed result() const noexcept { return Fixed::from_raw(sum_); }
  constexpr void reset() noexcept { sum_ = 0; }

 private:
  std::int64_t sum_ = 0;
};

}  // namespace klinq::fx
