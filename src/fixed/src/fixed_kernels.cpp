#include "klinq/fixed/fixed_kernels.hpp"

#if KLINQ_HAVE_X86_SIMD
#include <immintrin.h>
#endif

namespace klinq::fx::kernels {

// ---------------------------------------------------------------------------
// scalar64 tier
// ---------------------------------------------------------------------------

namespace scalar64 {

std::int64_t mac_row(const std::int32_t* weights, const std::int32_t* inputs,
                     std::size_t n, std::int64_t bias_raw,
                     const mac_spec& spec) noexcept {
  std::int64_t acc = bias_raw;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t product =
        static_cast<std::int64_t>(weights[i]) * inputs[i];
    acc += round_shift_clamp(product, spec.frac_bits, spec.raw_min,
                             spec.raw_max);
  }
  return clamp_raw(acc, spec.raw_min, spec.raw_max);
}

void mac_tile(const std::int32_t* weights, const std::int32_t* bias,
              std::size_t out_dim, std::size_t in_dim,
              const std::int32_t* in_plane, std::size_t tile,
              std::size_t stride, bool relu, std::int32_t* out_plane,
              const mac_spec& spec) noexcept {
  // Shot-inner accumulation: one weight broadcast serves every lane of the
  // tile, and the compiler SLP-vectorizes the inner loop on its own.
  std::int64_t acc[max_tile_lanes];
  for (std::size_t neuron = 0; neuron < out_dim; ++neuron) {
    const std::int32_t* weight_row = weights + neuron * in_dim;
    const std::int64_t bias_raw = bias[neuron];
    for (std::size_t s = 0; s < tile; ++s) acc[s] = bias_raw;
    for (std::size_t i = 0; i < in_dim; ++i) {
      const std::int64_t w = weight_row[i];
      const std::int32_t* lane = in_plane + i * stride;
      for (std::size_t s = 0; s < tile; ++s) {
        acc[s] += round_shift_clamp(w * lane[s], spec.frac_bits, spec.raw_min,
                                    spec.raw_max);
      }
    }
    std::int32_t* out_row = out_plane + neuron * stride;
    for (std::size_t s = 0; s < tile; ++s) {
      std::int64_t value = clamp_raw(acc[s], spec.raw_min, spec.raw_max);
      if (relu && value < 0) value = 0;
      out_row[s] = static_cast<std::int32_t>(value);
    }
  }
}

void quantize_block(const float* values, std::size_t n, std::int32_t* out,
                    const mac_spec& spec) noexcept {
  const double scale =
      static_cast<double>(std::int64_t{1} << spec.frac_bits);
  const double rail_max = static_cast<double>(spec.raw_max);
  const double rail_min = static_cast<double>(spec.raw_min);
  // Branchless selects throughout: the rail comparisons and the round
  // direction are data-dependent and unpredictable on real traces.
  for (std::size_t i = 0; i < n; ++i) {
    const double value = values[i];
    const double scaled = value * scale;
    // Clamp before the cast so huge/infinite/NaN inputs never reach the
    // (otherwise UB) double->int64 conversion; the rail and NaN selects
    // below overwrite the clamped result, so it never escapes.
    double bounded = scaled < rail_max ? scaled : rail_max;
    bounded = bounded > rail_min ? bounded : rail_min;
    std::int64_t raw = round_half_away_from_zero(bounded);
    raw = scaled >= rail_max ? spec.raw_max : raw;
    raw = scaled <= rail_min ? spec.raw_min : raw;
    raw = value != value ? 0 : raw;  // hardware has no NaN; define as 0
    out[i] = static_cast<std::int32_t>(raw);
  }
}

std::int64_t quantize_mac_row(const float* values,
                              const std::int32_t* weights, std::size_t n,
                              std::int32_t* out,
                              const mac_spec& spec) noexcept {
  scalar64::quantize_block(values, n, out, spec);
  return scalar64::mac_row(weights, out, n, 0, spec);
}

}  // namespace scalar64

// ---------------------------------------------------------------------------
// avx2 tier
// ---------------------------------------------------------------------------

#if KLINQ_HAVE_X86_SIMD

namespace {

// Per-function target("avx2") keeps the rest of the library buildable
// without -mavx2 while the runtime dispatcher guards execution via cpuid.

/// 4-lane round_shift_clamp: magnitude, biased shift, sign restore, rails.
__attribute__((target("avx2"))) inline __m256i round_shift_clamp_lanes(
    __m256i product, __m256i half, __m128i shift, __m256i rail_min,
    __m256i rail_max) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i sign = _mm256_cmpgt_epi64(zero, product);  // -1 where negative
  __m256i magnitude =
      _mm256_sub_epi64(_mm256_xor_si256(product, sign), sign);
  magnitude = _mm256_srl_epi64(_mm256_add_epi64(magnitude, half), shift);
  __m256i value = _mm256_sub_epi64(_mm256_xor_si256(magnitude, sign), sign);
  value = _mm256_blendv_epi8(value, rail_max,
                             _mm256_cmpgt_epi64(value, rail_max));
  value = _mm256_blendv_epi8(value, rail_min,
                             _mm256_cmpgt_epi64(rail_min, value));
  return value;
}

/// Saturate 4 wide accumulator lanes at the adder-tree root.
__attribute__((target("avx2"))) inline __m256i clamp_lanes(__m256i value,
                                                           __m256i rail_min,
                                                           __m256i rail_max) {
  value = _mm256_blendv_epi8(value, rail_max,
                             _mm256_cmpgt_epi64(value, rail_max));
  value = _mm256_blendv_epi8(value, rail_min,
                             _mm256_cmpgt_epi64(rail_min, value));
  return value;
}

/// Widen 4 packed int32 registers to the low halves of 4 int64 lanes.
__attribute__((target("avx2"))) inline __m256i load_lanes(
    const std::int32_t* p) {
  return _mm256_cvtepi32_epi64(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

/// Narrow 4 rail-clamped int64 lanes back to 4 packed int32 registers.
__attribute__((target("avx2"))) inline __m128i narrow_lanes(__m256i value) {
  const __m256i index = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  return _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(value, index));
}

__attribute__((target("avx2"))) std::int64_t mac_row_avx2(
    const std::int32_t* weights, const std::int32_t* inputs, std::size_t n,
    std::int64_t bias_raw, const mac_spec& spec) noexcept {
  const __m256i half = _mm256_set1_epi64x(
      spec.frac_bits > 0 ? std::int64_t{1} << (spec.frac_bits - 1) : 0);
  const __m128i shift = _mm_cvtsi32_si128(spec.frac_bits);
  const __m256i rail_min = _mm256_set1_epi64x(spec.raw_min);
  const __m256i rail_max = _mm256_set1_epi64x(spec.raw_max);
  // Two accumulators break the add-latency chain on long rows (the 2N-wide
  // matched-filter MAC); integer addition is exact, so the split is still
  // bit-identical to any other summation order.
  __m256i acc_lo = _mm256_setzero_si256();
  __m256i acc_hi = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i product_lo =
        _mm256_mul_epi32(load_lanes(weights + i), load_lanes(inputs + i));
    const __m256i product_hi = _mm256_mul_epi32(load_lanes(weights + i + 4),
                                                load_lanes(inputs + i + 4));
    acc_lo = _mm256_add_epi64(
        acc_lo, round_shift_clamp_lanes(product_lo, half, shift, rail_min,
                                        rail_max));
    acc_hi = _mm256_add_epi64(
        acc_hi, round_shift_clamp_lanes(product_hi, half, shift, rail_min,
                                        rail_max));
  }
  for (; i + 4 <= n; i += 4) {
    const __m256i product =
        _mm256_mul_epi32(load_lanes(weights + i), load_lanes(inputs + i));
    acc_lo = _mm256_add_epi64(
        acc_lo, round_shift_clamp_lanes(product, half, shift, rail_min,
                                        rail_max));
  }
  const __m256i acc = _mm256_add_epi64(acc_lo, acc_hi);
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::int64_t sum = bias_raw + lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) {
    sum += round_shift_clamp(static_cast<std::int64_t>(weights[i]) * inputs[i],
                             spec.frac_bits, spec.raw_min, spec.raw_max);
  }
  return clamp_raw(sum, spec.raw_min, spec.raw_max);
}

__attribute__((target("avx2"))) void mac_tile_avx2(
    const std::int32_t* weights, const std::int32_t* bias, std::size_t out_dim,
    std::size_t in_dim, const std::int32_t* in_plane, std::size_t tile,
    std::size_t stride, bool relu, std::int32_t* out_plane,
    const mac_spec& spec) noexcept {
  const __m256i half = _mm256_set1_epi64x(
      spec.frac_bits > 0 ? std::int64_t{1} << (spec.frac_bits - 1) : 0);
  const __m128i shift = _mm_cvtsi32_si128(spec.frac_bits);
  const __m256i rail_min = _mm256_set1_epi64x(spec.raw_min);
  const __m256i rail_max = _mm256_set1_epi64x(spec.raw_max);
  const __m256i zero = _mm256_setzero_si256();
  for (std::size_t neuron = 0; neuron < out_dim; ++neuron) {
    const std::int32_t* weight_row = weights + neuron * in_dim;
    const __m256i bias_lanes = _mm256_set1_epi64x(bias[neuron]);
    std::int32_t* out_row = out_plane + neuron * stride;
    std::size_t s = 0;
    // 8 shots per pass (two accumulators) amortizes the weight broadcast.
    for (; s + 8 <= tile; s += 8) {
      __m256i acc_lo = bias_lanes;
      __m256i acc_hi = bias_lanes;
      const std::int32_t* column = in_plane + s;
      for (std::size_t i = 0; i < in_dim; ++i) {
        const __m256i w = _mm256_set1_epi64x(weight_row[i]);
        const std::int32_t* lane = column + i * stride;
        acc_lo = _mm256_add_epi64(
            acc_lo,
            round_shift_clamp_lanes(_mm256_mul_epi32(w, load_lanes(lane)),
                                    half, shift, rail_min, rail_max));
        acc_hi = _mm256_add_epi64(
            acc_hi,
            round_shift_clamp_lanes(_mm256_mul_epi32(w, load_lanes(lane + 4)),
                                    half, shift, rail_min, rail_max));
      }
      acc_lo = clamp_lanes(acc_lo, rail_min, rail_max);
      acc_hi = clamp_lanes(acc_hi, rail_min, rail_max);
      if (relu) {
        acc_lo = _mm256_andnot_si256(_mm256_cmpgt_epi64(zero, acc_lo), acc_lo);
        acc_hi = _mm256_andnot_si256(_mm256_cmpgt_epi64(zero, acc_hi), acc_hi);
      }
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out_row + s),
                       narrow_lanes(acc_lo));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out_row + s + 4),
                       narrow_lanes(acc_hi));
    }
    for (; s + 4 <= tile; s += 4) {
      __m256i acc = bias_lanes;
      const std::int32_t* column = in_plane + s;
      for (std::size_t i = 0; i < in_dim; ++i) {
        const __m256i w = _mm256_set1_epi64x(weight_row[i]);
        acc = _mm256_add_epi64(
            acc, round_shift_clamp_lanes(
                     _mm256_mul_epi32(w, load_lanes(column + i * stride)),
                     half, shift, rail_min, rail_max));
      }
      acc = clamp_lanes(acc, rail_min, rail_max);
      if (relu) {
        acc = _mm256_andnot_si256(_mm256_cmpgt_epi64(zero, acc), acc);
      }
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out_row + s),
                       narrow_lanes(acc));
    }
    for (; s < tile; ++s) {
      std::int64_t acc = bias[neuron];
      const std::int32_t* column = in_plane + s;
      for (std::size_t i = 0; i < in_dim; ++i) {
        acc += round_shift_clamp(
            static_cast<std::int64_t>(weight_row[i]) * column[i * stride],
            spec.frac_bits, spec.raw_min, spec.raw_max);
      }
      std::int64_t value = clamp_raw(acc, spec.raw_min, spec.raw_max);
      if (relu && value < 0) value = 0;
      out_row[s] = static_cast<std::int32_t>(value);
    }
  }
}

__attribute__((target("avx2"))) void quantize_block_avx2(
    const float* values, std::size_t n, std::int32_t* out,
    const mac_spec& spec) noexcept {
  // The scalar algorithm (truncate, exact remainder, half comparison, rails)
  // vectorized over 4 doubles: every operation is the same IEEE operation in
  // the same precision, so results are bit-identical per element.
  const __m256d scale = _mm256_set1_pd(
      static_cast<double>(std::int64_t{1} << spec.frac_bits));
  const __m256d rail_max = _mm256_set1_pd(static_cast<double>(spec.raw_max));
  const __m256d rail_min = _mm256_set1_pd(static_cast<double>(spec.raw_min));
  const __m256d plus_half = _mm256_set1_pd(0.5);
  const __m256d minus_half = _mm256_set1_pd(-0.5);
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d value = _mm256_cvtps_pd(_mm_loadu_ps(values + i));
    const __m256d scaled = _mm256_mul_pd(value, scale);
    const __m256d truncated =
        _mm256_round_pd(scaled, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256d remainder = _mm256_sub_pd(scaled, truncated);  // exact
    const __m256d up =
        _mm256_and_pd(_mm256_cmp_pd(remainder, plus_half, _CMP_GE_OQ), one);
    const __m256d down =
        _mm256_and_pd(_mm256_cmp_pd(remainder, minus_half, _CMP_LE_OQ), one);
    __m256d rounded =
        _mm256_sub_pd(_mm256_add_pd(truncated, up), down);
    rounded = _mm256_blendv_pd(rounded, rail_max,
                               _mm256_cmp_pd(scaled, rail_max, _CMP_GE_OQ));
    rounded = _mm256_blendv_pd(rounded, rail_min,
                               _mm256_cmp_pd(scaled, rail_min, _CMP_LE_OQ));
    // NaN quantizes to 0 (hardware has no NaN); unordered lanes zero out.
    rounded = _mm256_andnot_pd(_mm256_cmp_pd(value, value, _CMP_UNORD_Q),
                               rounded);
    // Every lane is now an integer within the int32 rails, so the
    // round-to-nearest conversion is exact.
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm256_cvtpd_epi32(rounded));
  }
  if (i < n) scalar64::quantize_block(values + i, n - i, out + i, spec);
}

// ---------------------------------------------------------------------------
// avx512 tier
// ---------------------------------------------------------------------------

// GCC's avx512 intrinsic headers implement the unmasked min/max/convert
// forms via _mm512_undefined_*() and trip -Wmaybe-uninitialized on
// themselves (GCC PR105593); the suppression covers only this tier.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

/// Broadcast constants of the 8-lane post-scaler.
struct post_scaler512 {
  __m512i half, rail_min, rail_max;
  __m128i shift;
};

__attribute__((target("avx512f,avx512bw,avx512dq"))) inline post_scaler512
make_post_scaler512(const mac_spec& spec) {
  return {_mm512_set1_epi64(std::int64_t{1} << (spec.frac_bits - 1)),
          _mm512_set1_epi64(spec.raw_min), _mm512_set1_epi64(spec.raw_max),
          _mm_cvtsi32_si128(spec.frac_bits)};
}

/// 8-lane round_shift_clamp for frac_bits >= 1, the scalar arithmetic
/// as is: add half, less one for a negative product, shift arithmetically
/// (vpsraq), clamp with native 64-bit min/max. 6 operations, where the AVX2
/// tier needs a magnitude split and compare/blend clamps. Integer formats
/// (frac_bits == 0) would lose one from every negative product, so the
/// AVX-512 MAC kernels hand them to scalar64 (the library's formats all
/// have frac_bits >= 8).
__attribute__((target("avx512f,avx512bw,avx512dq"))) inline __m512i
round_shift_clamp_lanes512(__m512i product, const post_scaler512& k) {
  const __m512i biased = _mm512_add_epi64(
      _mm512_add_epi64(product, k.half), _mm512_srai_epi64(product, 63));
  return _mm512_max_epi64(
      _mm512_min_epi64(_mm512_sra_epi64(biased, k.shift), k.rail_max),
      k.rail_min);
}

/// Saturate 8 wide accumulator lanes at the adder-tree root.
__attribute__((target("avx512f,avx512bw,avx512dq"))) inline __m512i
clamp_lanes512(__m512i value, __m512i rail_min, __m512i rail_max) {
  return _mm512_max_epi64(_mm512_min_epi64(value, rail_max), rail_min);
}

/// Widen 8 packed int32 registers to 8 int64 lanes.
__attribute__((target("avx512f,avx512bw,avx512dq"))) inline __m512i
load_lanes512(const std::int32_t* p) {
  return _mm512_cvtepi32_epi64(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
}

__attribute__((target("avx512f,avx512bw,avx512dq"))) std::int64_t
mac_row_avx512(const std::int32_t* weights, const std::int32_t* inputs,
               std::size_t n, std::int64_t bias_raw,
               const mac_spec& spec) noexcept {
  if (spec.frac_bits == 0) {
    return scalar64::mac_row(weights, inputs, n, bias_raw, spec);
  }
  const post_scaler512 k = make_post_scaler512(spec);
  // Two accumulators break the add-latency chain on long rows; integer
  // addition is exact, so the split stays bit-identical to any other
  // summation order.
  __m512i acc_lo = _mm512_setzero_si512();
  __m512i acc_hi = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i product_lo = _mm512_mul_epi32(load_lanes512(weights + i),
                                                load_lanes512(inputs + i));
    const __m512i product_hi = _mm512_mul_epi32(load_lanes512(weights + i + 8),
                                                load_lanes512(inputs + i + 8));
    acc_lo =
        _mm512_add_epi64(acc_lo, round_shift_clamp_lanes512(product_lo, k));
    acc_hi =
        _mm512_add_epi64(acc_hi, round_shift_clamp_lanes512(product_hi, k));
  }
  for (; i + 8 <= n; i += 8) {
    const __m512i product = _mm512_mul_epi32(load_lanes512(weights + i),
                                             load_lanes512(inputs + i));
    acc_lo = _mm512_add_epi64(acc_lo, round_shift_clamp_lanes512(product, k));
  }
  std::int64_t sum =
      bias_raw + _mm512_reduce_add_epi64(_mm512_add_epi64(acc_lo, acc_hi));
  for (; i < n; ++i) {
    sum += round_shift_clamp(static_cast<std::int64_t>(weights[i]) * inputs[i],
                             spec.frac_bits, spec.raw_min, spec.raw_max);
  }
  return clamp_raw(sum, spec.raw_min, spec.raw_max);
}

__attribute__((target("avx512f,avx512bw,avx512dq"))) void mac_tile_avx512(
    const std::int32_t* weights, const std::int32_t* bias, std::size_t out_dim,
    std::size_t in_dim, const std::int32_t* in_plane, std::size_t tile,
    std::size_t stride, bool relu, std::int32_t* out_plane,
    const mac_spec& spec) noexcept {
  if (spec.frac_bits == 0) {
    scalar64::mac_tile(weights, bias, out_dim, in_dim, in_plane, tile, stride,
                       relu, out_plane, spec);
    return;
  }
  const post_scaler512 k = make_post_scaler512(spec);
  const __m512i zero = _mm512_setzero_si512();
  for (std::size_t neuron = 0; neuron < out_dim; ++neuron) {
    const std::int32_t* weight_row = weights + neuron * in_dim;
    const __m512i bias_lanes = _mm512_set1_epi64(bias[neuron]);
    std::int32_t* out_row = out_plane + neuron * stride;
    std::size_t s = 0;
    // 16 shots per pass (two accumulators) amortizes the weight broadcast.
    for (; s + 16 <= tile; s += 16) {
      __m512i acc_lo = bias_lanes;
      __m512i acc_hi = bias_lanes;
      const std::int32_t* column = in_plane + s;
      for (std::size_t i = 0; i < in_dim; ++i) {
        const __m512i w = _mm512_set1_epi64(weight_row[i]);
        const std::int32_t* lane = column + i * stride;
        acc_lo = _mm512_add_epi64(
            acc_lo, round_shift_clamp_lanes512(
                        _mm512_mul_epi32(w, load_lanes512(lane)), k));
        acc_hi = _mm512_add_epi64(
            acc_hi, round_shift_clamp_lanes512(
                        _mm512_mul_epi32(w, load_lanes512(lane + 8)), k));
      }
      acc_lo = clamp_lanes512(acc_lo, k.rail_min, k.rail_max);
      acc_hi = clamp_lanes512(acc_hi, k.rail_min, k.rail_max);
      if (relu) {
        acc_lo = _mm512_max_epi64(acc_lo, zero);
        acc_hi = _mm512_max_epi64(acc_hi, zero);
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out_row + s),
                          _mm512_cvtepi64_epi32(acc_lo));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out_row + s + 8),
                          _mm512_cvtepi64_epi32(acc_hi));
    }
    for (; s + 8 <= tile; s += 8) {
      __m512i acc = bias_lanes;
      const std::int32_t* column = in_plane + s;
      for (std::size_t i = 0; i < in_dim; ++i) {
        const __m512i w = _mm512_set1_epi64(weight_row[i]);
        acc = _mm512_add_epi64(
            acc, round_shift_clamp_lanes512(
                     _mm512_mul_epi32(w, load_lanes512(column + i * stride)),
                     k));
      }
      acc = clamp_lanes512(acc, k.rail_min, k.rail_max);
      if (relu) acc = _mm512_max_epi64(acc, zero);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out_row + s),
                          _mm512_cvtepi64_epi32(acc));
    }
    for (; s < tile; ++s) {
      std::int64_t acc = bias[neuron];
      const std::int32_t* column = in_plane + s;
      for (std::size_t i = 0; i < in_dim; ++i) {
        acc += round_shift_clamp(
            static_cast<std::int64_t>(weight_row[i]) * column[i * stride],
            spec.frac_bits, spec.raw_min, spec.raw_max);
      }
      std::int64_t value = clamp_raw(acc, spec.raw_min, spec.raw_max);
      if (relu && value < 0) value = 0;
      out_row[s] = static_cast<std::int32_t>(value);
    }
  }
}

/// Broadcast constants of the 16-lane quantizer.
struct quantize_consts512 {
  __m512 scale, rail_max, rail_min, plus_half, minus_half, one;
  __m512i raw_max, raw_min;
};

__attribute__((target("avx512f,avx512bw,avx512dq"))) inline quantize_consts512
make_quantize_consts512(const mac_spec& spec) {
  return {_mm512_set1_ps(
              static_cast<float>(std::int64_t{1} << spec.frac_bits)),
          _mm512_set1_ps(static_cast<float>(spec.raw_max)),
          _mm512_set1_ps(static_cast<float>(spec.raw_min)),
          _mm512_set1_ps(0.5f),
          _mm512_set1_ps(-0.5f),
          _mm512_set1_ps(1.0f),
          _mm512_set1_epi32(static_cast<std::int32_t>(spec.raw_max)),
          _mm512_set1_epi32(static_cast<std::int32_t>(spec.raw_min))};
}

/// Quantizes 16 floats exactly like scalar64::quantize_block, in float
/// precision (see the quantize_block contract in fixed_kernels.hpp):
/// truncate, exact remainder, half comparison, then the rail and NaN selects
/// on the int32 result. The conversion suppresses exceptions, and every
/// lane it could not convert exactly is overwritten by a select.
__attribute__((target("avx512f,avx512bw,avx512dq"))) inline __m512i
quantize_lanes512(__m512 value, const quantize_consts512& q) {
  const __m512 scaled = _mm512_mul_ps(value, q.scale);  // exact: times 2^F
  const __m512 truncated =
      _mm512_roundscale_ps(scaled, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m512 remainder = _mm512_sub_ps(scaled, truncated);  // exact
  __m512 rounded = _mm512_mask_add_ps(
      truncated, _mm512_cmp_ps_mask(remainder, q.plus_half, _CMP_GE_OQ),
      truncated, q.one);
  rounded = _mm512_mask_sub_ps(
      rounded, _mm512_cmp_ps_mask(remainder, q.minus_half, _CMP_LE_OQ),
      rounded, q.one);
  __m512i raw = _mm512_cvtt_roundps_epi32(rounded, _MM_FROUND_NO_EXC);
  raw = _mm512_mask_mov_epi32(
      raw, _mm512_cmp_ps_mask(scaled, q.rail_max, _CMP_GE_OQ), q.raw_max);
  raw = _mm512_mask_mov_epi32(
      raw, _mm512_cmp_ps_mask(scaled, q.rail_min, _CMP_LE_OQ), q.raw_min);
  // NaN quantizes to 0 (hardware has no NaN); keep only ordered lanes.
  return _mm512_maskz_mov_epi32(_mm512_cmp_ps_mask(value, value, _CMP_ORD_Q),
                                raw);
}

/// Lane mask of the last n % 16 elements of a 16-wide loop.
inline __mmask16 tail_mask16(std::size_t remaining) noexcept {
  return static_cast<__mmask16>((1u << remaining) - 1);
}

__attribute__((target("avx512f,avx512bw,avx512dq"))) void quantize_block_avx512(
    const float* values, std::size_t n, std::int32_t* out,
    const mac_spec& spec) noexcept {
  const quantize_consts512 q = make_quantize_consts512(spec);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_si512(out + i,
                        quantize_lanes512(_mm512_loadu_ps(values + i), q));
  }
  if (i < n) {
    const __mmask16 tail = tail_mask16(n - i);
    _mm512_mask_storeu_epi32(
        out + i, tail,
        quantize_lanes512(_mm512_maskz_loadu_ps(tail, values + i), q));
  }
}

/// Post-scaled matched-filter products of 16 int32 registers: vpmuldq
/// multiplies the even int32 lanes as int64, a 32-bit shift exposes the odd
/// ones, and addition order never matters in exact integer arithmetic.
__attribute__((target("avx512f,avx512bw,avx512dq"))) inline __m512i
mac_lanes512(__m512i raw, __m512i weight, const post_scaler512& k) {
  const __m512i even = _mm512_mul_epi32(raw, weight);
  const __m512i odd = _mm512_mul_epi32(_mm512_srli_epi64(raw, 32),
                                       _mm512_srli_epi64(weight, 32));
  return _mm512_add_epi64(round_shift_clamp_lanes512(even, k),
                          round_shift_clamp_lanes512(odd, k));
}

__attribute__((target("avx512f,avx512bw,avx512dq"))) std::int64_t
quantize_mac_row_avx512(const float* values, const std::int32_t* weights,
                        std::size_t n, std::int32_t* out,
                        const mac_spec& spec) noexcept {
  if (spec.frac_bits == 0) {
    return scalar64::quantize_mac_row(values, weights, n, out, spec);
  }
  const quantize_consts512 q = make_quantize_consts512(spec);
  const post_scaler512 k = make_post_scaler512(spec);
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i raw = quantize_lanes512(_mm512_loadu_ps(values + i), q);
    _mm512_storeu_si512(out + i, raw);
    acc = _mm512_add_epi64(
        acc, mac_lanes512(raw, _mm512_loadu_si512(weights + i), k));
  }
  if (i < n) {
    // Masked tail: inactive lanes load 0.0f and weight 0, so they quantize
    // to 0 and add an exact 0 to the MAC.
    const __mmask16 tail = tail_mask16(n - i);
    const __m512i raw =
        quantize_lanes512(_mm512_maskz_loadu_ps(tail, values + i), q);
    _mm512_mask_storeu_epi32(out + i, tail, raw);
    acc = _mm512_add_epi64(
        acc, mac_lanes512(raw, _mm512_maskz_loadu_epi32(tail, weights + i), k));
  }
  return clamp_raw(_mm512_reduce_add_epi64(acc), spec.raw_min, spec.raw_max);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace

namespace avx2 {

std::int64_t mac_row(const std::int32_t* weights, const std::int32_t* inputs,
                     std::size_t n, std::int64_t bias_raw,
                     const mac_spec& spec) noexcept {
  return mac_row_avx2(weights, inputs, n, bias_raw, spec);
}

void mac_tile(const std::int32_t* weights, const std::int32_t* bias,
              std::size_t out_dim, std::size_t in_dim,
              const std::int32_t* in_plane, std::size_t tile,
              std::size_t stride, bool relu, std::int32_t* out_plane,
              const mac_spec& spec) noexcept {
  mac_tile_avx2(weights, bias, out_dim, in_dim, in_plane, tile, stride, relu,
                out_plane, spec);
}

void quantize_block(const float* values, std::size_t n, std::int32_t* out,
                    const mac_spec& spec) noexcept {
  quantize_block_avx2(values, n, out, spec);
}

std::int64_t quantize_mac_row(const float* values,
                              const std::int32_t* weights, std::size_t n,
                              std::int32_t* out,
                              const mac_spec& spec) noexcept {
  quantize_block_avx2(values, n, out, spec);
  return mac_row_avx2(weights, out, n, 0, spec);
}

}  // namespace avx2

namespace avx512 {

std::int64_t mac_row(const std::int32_t* weights, const std::int32_t* inputs,
                     std::size_t n, std::int64_t bias_raw,
                     const mac_spec& spec) noexcept {
  return mac_row_avx512(weights, inputs, n, bias_raw, spec);
}

void mac_tile(const std::int32_t* weights, const std::int32_t* bias,
              std::size_t out_dim, std::size_t in_dim,
              const std::int32_t* in_plane, std::size_t tile,
              std::size_t stride, bool relu, std::int32_t* out_plane,
              const mac_spec& spec) noexcept {
  mac_tile_avx512(weights, bias, out_dim, in_dim, in_plane, tile, stride, relu,
                  out_plane, spec);
}

void quantize_block(const float* values, std::size_t n, std::int32_t* out,
                    const mac_spec& spec) noexcept {
  quantize_block_avx512(values, n, out, spec);
}

std::int64_t quantize_mac_row(const float* values,
                              const std::int32_t* weights, std::size_t n,
                              std::int32_t* out,
                              const mac_spec& spec) noexcept {
  return quantize_mac_row_avx512(values, weights, n, out, spec);
}

}  // namespace avx512

#else  // !KLINQ_HAVE_X86_SIMD

// Keep the avx2:: / avx512:: entry points linkable on builds without the
// SIMD bodies; avx2_available() / avx512_available() report false, so the
// harness skips rather than compares scalar against itself.
namespace avx2 {

std::int64_t mac_row(const std::int32_t* weights, const std::int32_t* inputs,
                     std::size_t n, std::int64_t bias_raw,
                     const mac_spec& spec) noexcept {
  return scalar64::mac_row(weights, inputs, n, bias_raw, spec);
}

void mac_tile(const std::int32_t* weights, const std::int32_t* bias,
              std::size_t out_dim, std::size_t in_dim,
              const std::int32_t* in_plane, std::size_t tile,
              std::size_t stride, bool relu, std::int32_t* out_plane,
              const mac_spec& spec) noexcept {
  scalar64::mac_tile(weights, bias, out_dim, in_dim, in_plane, tile, stride,
                     relu, out_plane, spec);
}

void quantize_block(const float* values, std::size_t n, std::int32_t* out,
                    const mac_spec& spec) noexcept {
  scalar64::quantize_block(values, n, out, spec);
}

std::int64_t quantize_mac_row(const float* values,
                              const std::int32_t* weights, std::size_t n,
                              std::int32_t* out,
                              const mac_spec& spec) noexcept {
  return scalar64::quantize_mac_row(values, weights, n, out, spec);
}

}  // namespace avx2

namespace avx512 {

std::int64_t mac_row(const std::int32_t* weights, const std::int32_t* inputs,
                     std::size_t n, std::int64_t bias_raw,
                     const mac_spec& spec) noexcept {
  return scalar64::mac_row(weights, inputs, n, bias_raw, spec);
}

void mac_tile(const std::int32_t* weights, const std::int32_t* bias,
              std::size_t out_dim, std::size_t in_dim,
              const std::int32_t* in_plane, std::size_t tile,
              std::size_t stride, bool relu, std::int32_t* out_plane,
              const mac_spec& spec) noexcept {
  scalar64::mac_tile(weights, bias, out_dim, in_dim, in_plane, tile, stride,
                     relu, out_plane, spec);
}

void quantize_block(const float* values, std::size_t n, std::int32_t* out,
                    const mac_spec& spec) noexcept {
  scalar64::quantize_block(values, n, out, spec);
}

std::int64_t quantize_mac_row(const float* values,
                              const std::int32_t* weights, std::size_t n,
                              std::int32_t* out,
                              const mac_spec& spec) noexcept {
  return scalar64::quantize_mac_row(values, weights, n, out, spec);
}

}  // namespace avx512

#endif  // KLINQ_HAVE_X86_SIMD

bool avx2_available() noexcept {
  return KLINQ_HAVE_X86_SIMD != 0 && cpu_supports_avx2();
}

bool avx512_available() noexcept {
  return KLINQ_HAVE_X86_SIMD != 0 && cpu_supports_avx512();
}

// ---------------------------------------------------------------------------
// Dispatched entry points
// ---------------------------------------------------------------------------

namespace {

struct kernel_table {
  std::int64_t (*mac_row)(const std::int32_t*, const std::int32_t*,
                          std::size_t, std::int64_t, const mac_spec&) noexcept;
  void (*mac_tile)(const std::int32_t*, const std::int32_t*, std::size_t,
                   std::size_t, const std::int32_t*, std::size_t, std::size_t,
                   bool, std::int32_t*, const mac_spec&) noexcept;
  void (*quantize_block)(const float*, std::size_t, std::int32_t*,
                         const mac_spec&) noexcept;
  std::int64_t (*quantize_mac_row)(const float*, const std::int32_t*,
                                   std::size_t, std::int32_t*,
                                   const mac_spec&) noexcept;
};

const kernel_table& active_table() noexcept {
  static const kernel_table table = [] {
    switch (active_simd_tier()) {
      case simd_tier::avx512:
        return kernel_table{avx512::mac_row, avx512::mac_tile,
                            avx512::quantize_block, avx512::quantize_mac_row};
      case simd_tier::avx2:
        return kernel_table{avx2::mac_row, avx2::mac_tile,
                            avx2::quantize_block, avx2::quantize_mac_row};
      case simd_tier::scalar64:
        break;
    }
    return kernel_table{scalar64::mac_row, scalar64::mac_tile,
                        scalar64::quantize_block, scalar64::quantize_mac_row};
  }();
  return table;
}

}  // namespace

std::int64_t mac_row(const std::int32_t* weights, const std::int32_t* inputs,
                     std::size_t n, std::int64_t bias_raw,
                     const mac_spec& spec) noexcept {
  return active_table().mac_row(weights, inputs, n, bias_raw, spec);
}

void mac_tile(const std::int32_t* weights, const std::int32_t* bias,
              std::size_t out_dim, std::size_t in_dim,
              const std::int32_t* in_plane, std::size_t tile,
              std::size_t stride, bool relu, std::int32_t* out_plane,
              const mac_spec& spec) noexcept {
  active_table().mac_tile(weights, bias, out_dim, in_dim, in_plane, tile,
                          stride, relu, out_plane, spec);
}

void quantize_block(const float* values, std::size_t n, std::int32_t* out,
                    const mac_spec& spec) noexcept {
  active_table().quantize_block(values, n, out, spec);
}

std::int64_t quantize_mac_row(const float* values,
                              const std::int32_t* weights, std::size_t n,
                              std::int32_t* out,
                              const mac_spec& spec) noexcept {
  return active_table().quantize_mac_row(values, weights, n, out, spec);
}

}  // namespace klinq::fx::kernels
