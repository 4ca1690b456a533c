// Vectorized fixed-point MAC kernels over raw register planes.
//
// fixed::operator* models the FPGA's DSP post-scaler with a full-width
// int128 product and a branchy round-to-nearest shift — bit-accurate, but
// ~10x slower than the float path when it runs once per weight. For every
// format whose register fits 32 bits the int128 is pure overhead: with
// |raw| < 2^(I+F-1) a weight*input product is bounded by 2^(2(I+F)-2), so
// for 2*(I+F) <= 64 (Q8.8, Q12.12, Q16.16 — the paper's datapath) the
// product plus the rounding bias 2^(F-1) stays strictly below 2^63 and the
// whole post-scaler runs branchless in int64 (for F >= 1):
//
//   down     = product >> 63                      (arithmetic, 0 or -1)
//   rounded  = (product + 2^(F-1) + down) >> F    (arithmetic shift)
//   value    = clamp(rounded)                     (the activation rails)
//
// Adding half, less one for a negative product, rounds the magnitude half
// away from zero, so negative exact multiples stay exact — the same tie
// rule fixed::round_shift_right implements in int128. The AVX2 tier, which
// has no 64-bit arithmetic shift, computes the same value on the
// magnitude: |product| + 2^(F-1), a logical shift, then the sign. Kernels
// accumulate the clamped products in plain int64 (the wide adder tree;
// integer addition is exact, so any summation order is bit-identical) and
// saturate once at extraction, exactly like fixed_accumulator.
//
// Three implementation tiers share this contract: a scalar int64 path any
// host runs, an AVX2 path (4 x int64 lanes) and an AVX-512 path (8 x int64
// lanes), selected at runtime via klinq/common/cpu_dispatch.hpp. All are
// bit-identical to the int128 reference by construction (integer arithmetic
// is exact, so lane count and summation order don't matter);
// tests/test_fixed_kernels.cpp proves it adversarially. Wide formats
// (Q24.24) fail the int64 bound and stay on the fixed<I,F> reference path —
// the hw:: layer gates on has_int64_fast_path.
#pragma once

#include <cstddef>
#include <cstdint>

#include "klinq/common/cpu_dispatch.hpp"
#include "klinq/fixed/fixed.hpp"

namespace klinq::fx::kernels {

/// Runtime description of a fixed<I,F> format as the kernels consume it.
struct mac_spec {
  int frac_bits = 0;
  std::int64_t raw_min = 0;
  std::int64_t raw_max = 0;
};

/// True when fixed<I,F> qualifies for the int64 fast path (see file
/// comment): products of in-range registers, rounding bias included, never
/// overflow int64, and every register (rails included) fits an int32 lane.
template <class Fixed>
inline constexpr bool has_int64_fast_path = 2 * Fixed::total_bits <= 64;

template <class Fixed>
constexpr mac_spec spec_of() noexcept {
  static_assert(has_int64_fast_path<Fixed>,
                "format too wide for the int64 kernel fast path");
  return {Fixed::frac_bits, Fixed::raw_min, Fixed::raw_max};
}

/// spec_of for contexts that instantiate wide formats too: a default
/// (never-dispatched) spec for formats on the int128 reference path.
template <class Fixed>
constexpr mac_spec spec_or_default() noexcept {
  if constexpr (has_int64_fast_path<Fixed>) {
    return spec_of<Fixed>();
  } else {
    return mac_spec{};
  }
}

/// Largest shot-tile width the tile kernels accept (the hw:: layer's cache
/// tile); callers must keep `tile <= max_tile_lanes <= stride`.
inline constexpr std::size_t max_tile_lanes = 64;

/// mac_tile's AVX-512 lane block: lanes past the last whole block of this
/// many run in the kernel's scalar remainder loop. Callers that pick between
/// the tile and row kernels (hw::fixed_discriminator::logits_block) send only
/// whole blocks to mac_tile and run the ragged rest one shot at a time
/// through mac_row, which vectorizes along the inputs instead.
inline constexpr std::size_t tile_lane_block = 8;

/// The branchless DSP post-scaler: round a full-precision product back to F
/// fractional bits (ties away from zero) and clamp to the format rails.
/// Bit-identical to fixed::operator* whenever |product| <= 2^62 —
/// guaranteed for every fast-path format. F = 0 leaves the product as is;
/// the NORM stage's right shift reuses it with F = the shift.
constexpr std::int64_t round_shift_clamp(std::int64_t product, int frac_bits,
                                         std::int64_t raw_min,
                                         std::int64_t raw_max) noexcept {
  const std::int64_t half =
      frac_bits > 0 ? std::int64_t{1} << (frac_bits - 1) : 0;
  const std::int64_t down = frac_bits > 0 ? product >> 63 : 0;  // 0 or -1
  const std::int64_t value = (product + half + down) >> frac_bits;
  const std::int64_t low = value < raw_min ? raw_min : value;
  return low > raw_max ? raw_max : low;
}

/// Single saturation at the adder-tree root (fixed_accumulator::result).
constexpr std::int64_t clamp_raw(std::int64_t value, std::int64_t raw_min,
                                 std::int64_t raw_max) noexcept {
  const std::int64_t low = value < raw_min ? raw_min : value;
  return low > raw_max ? raw_max : low;
}

// ---------------------------------------------------------------------------
// Kernel contract (identical across tiers):
//
//   mac_row        one neuron's MAC: sum_i round_shift_clamp(w[i] * x[i])
//                  over contiguous raw rows, plus bias_raw, saturated once.
//                  Returns the raw register (no activation applied).
//
//   mac_tile       one layer over a shot tile. `weights` is (out_dim x
//                  in_dim) row-major, `bias` has out_dim entries. Planes are
//                  feature-major: shot s of feature i lives at
//                  plane[i * stride + s]; lanes s in [0, tile) are written,
//                  lanes beyond `tile` are neither read nor written.
//                  Requires tile <= max_tile_lanes and tile <= stride.
//                  `relu` applies the RTL's sign-bit ReLU to every output.
//
//   quantize_block float samples -> raw registers, bit-identical to
//                  Fixed::from_double per element (round to nearest, ties
//                  away from zero; rails saturate; NaN quantizes to 0).
//                  The AVX-512 body works 16 floats per step in float
//                  precision: scaling by 2^F is exact, and the rail compare
//                  against float(raw_max) agrees with the double compare
//                  because no float lies in [raw_max, float(raw_max)) for
//                  any raw_max = 2^k - 1 with k <= 31.
//
//   quantize_mac_row
//                  the front end's single sweep over one shot: quantizes n
//                  float samples into `out` exactly like quantize_block and,
//                  in the same pass, returns the matched-filter MAC of the
//                  fresh registers against `weights`, exactly like
//                  mac_row(weights, out, n, 0) (saturated once). The
//                  AVX-512 body fuses the two loops; the other tiers call
//                  quantize_block then mac_row.
//
//   prefix_sum     the AVG stage's scan: out[0] = 0 and out[i + 1] =
//                  out[i] + values[i] for i < n (n + 1 outputs), exact in
//                  int64 for any n < 2^32. Any run's sum is then
//                  out[end] - out[begin], one subtraction whatever its
//                  length. The AVX-512 tier scans 8 widened lanes in
//                  registers and carries the running total. The AVX2 tier
//                  runs scalar64's loop: a 4-lane scan measured no faster.
//
//   group_sums     the AVG group sums from prefix_sum's output over a
//                  2n-sample row [I | Q]: for g < groups,
//                    sums[g] = prefix[bounds[g + 1]] - prefix[bounds[g]]
//                    sums[groups + g] =
//                        prefix[n + bounds[g + 1]] - prefix[n + bounds[g]]
//                  with bounds ascending, bounds[groups] <= n < 2^31. One
//                  scalar body, not dispatched: gathering the bounds in
//                  vector lanes measured no faster on a whole front-end
//                  row (two loads and a subtraction per group).
//
//   scale_norm_row the front end's per-feature back half, over a contiguous
//                  row of `count` exact int64 sums. Feature c is
//                    avg = round_shift_clamp(clamp(sums[c]) * scale[c], F)
//                    x   = clamp(avg - offset[c])
//                    out[c * out_stride] =
//                          clamp(round_shift_clamp(x, right[c]) << left[c])
//                  i.e. the AVG reciprocal through the DSP post-scaler
//                  (fixed_accumulator::result, then fixed::operator*) and
//                  NORM (fixed::shifted_right / shifted_left). A scale of
//                  2^F passes a register through the AVG step unchanged (the
//                  MF feature). Requires 0 <= scale[c] <= 2^F,
//                  0 <= right[c] <= 62 and 0 <= left[c] <= 32.
// ---------------------------------------------------------------------------

/// Per-feature constants of scale_norm_row: `count` entries each.
struct feature_norm {
  const std::int64_t* scale = nullptr;
  const std::int64_t* offset = nullptr;
  const std::int64_t* right = nullptr;
  const std::int64_t* left = nullptr;
};

/// Branchless int64 scalar tier — every host runs this.
namespace scalar64 {

std::int64_t mac_row(const std::int32_t* weights, const std::int32_t* inputs,
                     std::size_t n, std::int64_t bias_raw,
                     const mac_spec& spec) noexcept;

void mac_tile(const std::int32_t* weights, const std::int32_t* bias,
              std::size_t out_dim, std::size_t in_dim,
              const std::int32_t* in_plane, std::size_t tile,
              std::size_t stride, bool relu, std::int32_t* out_plane,
              const mac_spec& spec) noexcept;

void quantize_block(const float* values, std::size_t n, std::int32_t* out,
                    const mac_spec& spec) noexcept;

std::int64_t quantize_mac_row(const float* values,
                              const std::int32_t* weights, std::size_t n,
                              std::int32_t* out, const mac_spec& spec) noexcept;

void prefix_sum(const std::int32_t* values, std::size_t n,
                std::int64_t* out) noexcept;

void scale_norm_row(const std::int64_t* sums, const feature_norm& norm,
                    std::size_t count, std::int32_t* out,
                    std::size_t out_stride, const mac_spec& spec) noexcept;

}  // namespace scalar64

/// AVX2 tier (4 x int64 lanes). Entry points exist on every build so the
/// equality harness links unconditionally; on builds without the SIMD bodies
/// (non-x86 or KLINQ_DISABLE_SIMD) they forward to scalar64. Call them
/// directly only when avx2_available() — the dispatched entry points below
/// handle that automatically.
namespace avx2 {

std::int64_t mac_row(const std::int32_t* weights, const std::int32_t* inputs,
                     std::size_t n, std::int64_t bias_raw,
                     const mac_spec& spec) noexcept;

void mac_tile(const std::int32_t* weights, const std::int32_t* bias,
              std::size_t out_dim, std::size_t in_dim,
              const std::int32_t* in_plane, std::size_t tile,
              std::size_t stride, bool relu, std::int32_t* out_plane,
              const mac_spec& spec) noexcept;

void quantize_block(const float* values, std::size_t n, std::int32_t* out,
                    const mac_spec& spec) noexcept;

std::int64_t quantize_mac_row(const float* values,
                              const std::int32_t* weights, std::size_t n,
                              std::int32_t* out, const mac_spec& spec) noexcept;

void scale_norm_row(const std::int64_t* sums, const feature_norm& norm,
                    std::size_t count, std::int32_t* out,
                    std::size_t out_stride, const mac_spec& spec) noexcept;

}  // namespace avx2

/// AVX-512 tier (8 x int64 lanes, F+BW+DQ subsets). Same linkage contract as
/// avx2::: the entry points exist on every build (forwarding to scalar64
/// without the SIMD bodies); call them directly only when
/// avx512_available().
namespace avx512 {

std::int64_t mac_row(const std::int32_t* weights, const std::int32_t* inputs,
                     std::size_t n, std::int64_t bias_raw,
                     const mac_spec& spec) noexcept;

void mac_tile(const std::int32_t* weights, const std::int32_t* bias,
              std::size_t out_dim, std::size_t in_dim,
              const std::int32_t* in_plane, std::size_t tile,
              std::size_t stride, bool relu, std::int32_t* out_plane,
              const mac_spec& spec) noexcept;

void quantize_block(const float* values, std::size_t n, std::int32_t* out,
                    const mac_spec& spec) noexcept;

std::int64_t quantize_mac_row(const float* values,
                              const std::int32_t* weights, std::size_t n,
                              std::int32_t* out, const mac_spec& spec) noexcept;

void prefix_sum(const std::int32_t* values, std::size_t n,
                std::int64_t* out) noexcept;

void scale_norm_row(const std::int64_t* sums, const feature_norm& norm,
                    std::size_t count, std::int32_t* out,
                    std::size_t out_stride, const mac_spec& spec) noexcept;

}  // namespace avx512

/// True when the AVX2 tier was compiled in and the executing CPU supports it.
bool avx2_available() noexcept;

/// True when the AVX-512 tier was compiled in and the executing CPU supports
/// it (F+BW+DQ).
bool avx512_available() noexcept;

// --- dispatched entry points (tier resolved once per process) --------------

std::int64_t mac_row(const std::int32_t* weights, const std::int32_t* inputs,
                     std::size_t n, std::int64_t bias_raw,
                     const mac_spec& spec) noexcept;

void mac_tile(const std::int32_t* weights, const std::int32_t* bias,
              std::size_t out_dim, std::size_t in_dim,
              const std::int32_t* in_plane, std::size_t tile,
              std::size_t stride, bool relu, std::int32_t* out_plane,
              const mac_spec& spec) noexcept;

void quantize_block(const float* values, std::size_t n, std::int32_t* out,
                    const mac_spec& spec) noexcept;

std::int64_t quantize_mac_row(const float* values,
                              const std::int32_t* weights, std::size_t n,
                              std::int32_t* out, const mac_spec& spec) noexcept;

void prefix_sum(const std::int32_t* values, std::size_t n,
                std::int64_t* out) noexcept;

/// One body on every tier (not dispatched).
void group_sums(const std::int64_t* prefix, std::size_t n,
                const std::uint32_t* bounds, std::size_t groups,
                std::int64_t* sums) noexcept;

void scale_norm_row(const std::int64_t* sums, const feature_norm& norm,
                    std::size_t count, std::int32_t* out,
                    std::size_t out_stride, const mac_spec& spec) noexcept;

}  // namespace klinq::fx::kernels
