// Fixed-point data pre-processing front-end (paper §IV, Fig. 3).
//
// Mirrors the PL pipeline ahead of the fully connected layers:
//   AVG   — per-group sum, then multiply by a precomputed reciprocal
//           (a configuration constant; the datapath never divides),
//   NORM  — subtract the calibrated x_min, arithmetic-shift by the
//           power-of-two σ exponent (the paper's division-free normalizer),
//   MF    — wide MAC of the quantized envelope against the raw trace,
//           normalized through its own (x_min, shift) pair,
//   CONCAT — [avg I | avg Q | MF] forms the student network input.
//
// Constructed from a fitted float feature_pipeline; all calibration
// constants are quantized once at build time, exactly like writing the
// FPGA's parameter BRAM. That includes the AVG group bounds and reciprocals
// for the trace duration the MF envelope fixes, and each feature's NORM
// split into a rounding right shift and a saturating left shift.
//
// Two paths compute the same registers. extract() is the fixed<I,F>
// reference (int128 products, one accumulator per group). For 32-bit
// formats, extract_trace() is the hot path and, like the RTL, reads each
// ADC sample once: one dispatched sweep (fx::kernels::quantize_mac_row)
// quantizes the trace into an L1-resident register row and accumulates
// the MF MAC in the same loop (without MF, quantize_block alone). A
// dispatched scan (fx::kernels::prefix_sum) then turns the row into exact
// int64 prefix sums, so each AVG group sum is one subtraction,
// P[end] - P[begin], whatever the group's length. The group sums
// and the MF register form one contiguous feature row, and the AVG
// post-scale and NORM run over it as one vector pass
// (fx::kernels::scale_norm_row) that writes each feature once into the
// caller's (feature-major) plane. extract_raw() is the same back half over
// a row quantize_trace_raw() produced, for timing the stages apart.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "klinq/common/aligned.hpp"
#include "klinq/common/error.hpp"
#include "klinq/dsp/feature_pipeline.hpp"
#include "klinq/fixed/fixed.hpp"
#include "klinq/fixed/fixed_kernels.hpp"

namespace klinq::hw {

/// The AVG stage's configuration for one trace duration N and G groups:
/// group g covers samples [bounds[g], bounds[g + 1]) of each quadrature.
/// `scale` is the feature row's AVG multiplier for scale_norm_row: the raw
/// register of 1 / length for group g of I (entry g) and of Q (entry
/// G + g), then 2^F, which passes the MF register through unchanged.
struct avg_plan {
  std::size_t samples_per_quadrature = 0;  ///< 0: not built
  std::size_t groups = 0;
  std::vector<std::uint32_t> bounds;
  std::vector<std::int64_t> scale;
};

/// Per-thread buffers of fixed_frontend::extract_trace: the 2N-register row
/// the sweep writes, its 2N + 1 prefix sums, the feature row of group sums
/// and MF, and an AVG plan for a front end without one (only without MF,
/// whose envelope pins N at construction). The plan is keyed by duration
/// and G, so one scratch serves the front ends of every qubit.
struct frontend_scratch {
  aligned_vector<std::int32_t> row;
  aligned_vector<std::int64_t> prefix;
  aligned_vector<std::int64_t> sums;
  avg_plan plan;
};

template <class Fixed>
class fixed_frontend {
 public:
  /// True when this format runs the vectorized raw-register kernels (see
  /// fixed_kernels.hpp); Q24.24 stays on the fixed<I,F> reference path.
  static constexpr bool kernel_fast_path =
      fx::kernels::has_int64_fast_path<Fixed>;

  /// The signature of fx::kernels::quantize_mac_row at any tier.
  using sweep_kernel = std::int64_t (*)(const float*, const std::int32_t*,
                                        std::size_t, std::int32_t*,
                                        const fx::kernels::mac_spec&) noexcept;

  fixed_frontend() = default;

  explicit fixed_frontend(const dsp::feature_pipeline& pipeline) {
    KLINQ_REQUIRE(pipeline.is_fitted(), "fixed_frontend: unfitted pipeline");
    KLINQ_REQUIRE(
        pipeline.normalizer().mode() == dsp::norm_mode::pow2_shift,
        "fixed_frontend: hardware requires power-of-two normalization");
    groups_ = pipeline.averager().groups_per_quadrature();
    use_mf_ = pipeline.config().use_matched_filter;
    if (use_mf_) {
      for (const float w : pipeline.filter().envelope()) {
        mf_envelope_.push_back(Fixed::from_double(w));
      }
      if constexpr (kernel_fast_path) {
        mf_envelope_raw_.reserve(mf_envelope_.size());
        for (const Fixed w : mf_envelope_) {
          mf_envelope_raw_.push_back(static_cast<std::int32_t>(w.raw()));
        }
      }
    }
    const auto& norm = pipeline.normalizer();
    for (std::size_t c = 0; c < norm.feature_width(); ++c) {
      x_min_.push_back(Fixed::from_double(norm.x_min()[c]));
    }
    shift_.assign(norm.shift_exponents().begin(),
                  norm.shift_exponents().end());
    if constexpr (kernel_fast_path) {
      if (use_mf_) build_plan(mf_envelope_.size() / 2, plan_);
      // NORM split by the exponent's sign into a rounding right shift or a
      // left shift that the final clamp saturates. A right shift past 62
      // leaves 0 of any register and a left shift past 32 saturates any
      // nonzero one, as the int128 reference does; the caps keep the int64
      // shifts defined.
      for (std::size_t c = 0; c < shift_.size(); ++c) {
        norm_offset_.push_back(x_min_[c].raw());
        norm_right_.push_back(std::clamp(shift_[c], 0, 62));
        norm_left_.push_back(std::clamp(-shift_[c], 0, 32));
      }
    }
  }

  std::size_t output_width() const noexcept {
    return 2 * groups_ + (use_mf_ ? 1 : 0);
  }
  std::size_t groups_per_quadrature() const noexcept { return groups_; }

  /// Quantizes a float ADC trace into a caller-provided register file
  /// (allocation-free hot path for batched evaluation).
  static void quantize_trace(std::span<const float> trace,
                             std::span<Fixed> out) {
    KLINQ_REQUIRE(out.size() == trace.size(),
                  "fixed_frontend: quantize output width != trace width");
    for (std::size_t i = 0; i < trace.size(); ++i) {
      out[i] = Fixed::from_double(trace[i]);
    }
  }

  /// Quantizes a float ADC trace into the fixed input register file.
  static std::vector<Fixed> quantize_trace(std::span<const float> trace) {
    std::vector<Fixed> out(trace.size());
    quantize_trace(trace, out);
    return out;
  }

  /// Fast path: quantizes a float ADC trace into raw int32 registers through
  /// the dispatched quantize_block kernel — bit-identical to quantize_trace
  /// (Fixed::from_double) per sample.
  static void quantize_trace_raw(std::span<const float> trace,
                                 std::span<std::int32_t> out)
    requires(kernel_fast_path)
  {
    KLINQ_REQUIRE(out.size() == trace.size(),
                  "fixed_frontend: quantize output width != trace width");
    fx::kernels::quantize_block(trace.data(), trace.size(), out.data(),
                                kSpec);
  }

  /// Runs AVG → NORM ∥ MF → CONCAT on a quantized trace of N complex
  /// samples. `out` must have output_width() entries.
  void extract(std::span<const Fixed> trace,
               std::size_t samples_per_quadrature,
               std::span<Fixed> out) const {
    const std::size_t n = samples_per_quadrature;
    KLINQ_REQUIRE(trace.size() == 2 * n, "fixed_frontend: trace width != 2N");
    KLINQ_REQUIRE(out.size() == output_width(),
                  "fixed_frontend: bad output span");
    KLINQ_REQUIRE(n >= groups_, "fixed_frontend: fewer samples than groups");
    KLINQ_REQUIRE(!use_mf_ || mf_envelope_.size() == 2 * n,
                  "fixed_frontend: envelope width does not match this trace "
                  "duration (rebuild the front-end for the new duration)");

    // AVG: adder tree per group, multiply by reciprocal group length.
    for (std::size_t quadrature = 0; quadrature < 2; ++quadrature) {
      for (std::size_t g = 0; g < groups_; ++g) {
        const std::size_t begin = g * n / groups_;
        const std::size_t end = (g + 1) * n / groups_;
        fx::fixed_accumulator<Fixed> acc;
        for (std::size_t s = begin; s < end; ++s) {
          acc.add(trace[quadrature * n + s]);
        }
        // Reciprocal is a configuration constant (per group length), not a
        // runtime division.
        const Fixed reciprocal =
            Fixed::from_double(1.0 / static_cast<double>(end - begin));
        out[quadrature * groups_ + g] = acc.result() * reciprocal;
      }
    }

    // MF: wide MAC over the raw quantized trace.
    if (use_mf_) {
      fx::fixed_accumulator<Fixed> acc;
      for (std::size_t i = 0; i < trace.size(); ++i) {
        acc.add(mf_envelope_[i] * trace[i]);
      }
      out[out.size() - 1] = acc.result();
    }

    // NORM: (x − x_min) >> k for every concatenated feature.
    for (std::size_t c = 0; c < out.size(); ++c) {
      out[c] = (out[c] - x_min_[c]).shifted_right(shift_[c]);
    }
  }

  /// The fast path's one entry point per shot (see the file comment): the
  /// quantize+MF sweep into scratch.row (quantize_block alone without MF),
  /// then finish_features. Feature c is written once, to
  /// out[c * out_stride]; a stride of quantized_network::kBatchTile lays
  /// consecutive shots out feature-major, directly consumable by
  /// forward_logits_plane. Bit-identical to quantize_trace + extract per
  /// feature. `sweep` runs the dispatched tier unless a bench or test pins
  /// one.
  void extract_trace(std::span<const float> trace,
                     std::size_t samples_per_quadrature,
                     frontend_scratch& scratch, std::int32_t* out,
                     std::size_t out_stride,
                     sweep_kernel sweep = fx::kernels::quantize_mac_row) const
    requires(kernel_fast_path)
  {
    const std::size_t n = samples_per_quadrature;
    require_duration(trace.size(), n);
    scratch.row.resize(trace.size());
    std::int64_t mf = 0;
    if (use_mf_) {
      mf = sweep(trace.data(), mf_envelope_raw_.data(), trace.size(),
                 scratch.row.data(), kSpec);
    } else {
      fx::kernels::quantize_block(trace.data(), trace.size(),
                                  scratch.row.data(), kSpec);
    }
    finish_features(scratch.row.data(), mf, plan_for(n, scratch.plan),
                    scratch, out, out_stride);
  }

  /// extract_trace's back half over an already quantized register row (from
  /// quantize_trace_raw): the MF MAC as its own pass, then the same AVG and
  /// NORM code. Kept for timing the stages apart; bit-identical to
  /// extract_trace and to extract().
  void extract_raw(std::span<const std::int32_t> trace,
                   std::size_t samples_per_quadrature, std::int32_t* out,
                   std::size_t out_stride) const
    requires(kernel_fast_path)
  {
    const std::size_t n = samples_per_quadrature;
    require_duration(trace.size(), n);
    const std::int64_t mf =
        use_mf_ ? fx::kernels::mac_row(mf_envelope_raw_.data(), trace.data(),
                                       trace.size(), 0, kSpec)
                : 0;
    // Without MF, this thread's plan is rebuilt only when the duration or G
    // changes.
    thread_local frontend_scratch spare;
    finish_features(trace.data(), mf, plan_for(n, spare.plan), spare, out,
                    out_stride);
  }

 private:
  static constexpr fx::kernels::mac_spec kSpec =
      fx::kernels::spec_or_default<Fixed>();

  void require_duration(std::size_t width, std::size_t n) const {
    KLINQ_REQUIRE(width == 2 * n, "fixed_frontend: trace width != 2N");
    KLINQ_REQUIRE(n >= groups_, "fixed_frontend: fewer samples than groups");
    KLINQ_REQUIRE(!use_mf_ || mf_envelope_.size() == 2 * n,
                  "fixed_frontend: envelope width does not match this trace "
                  "duration (rebuild the front-end for the new duration)");
  }

  /// Fills `plan` for an N-sample duration: the AVG partition
  /// [gN/G, (g+1)N/G) of a quadrature and each group's reciprocal length,
  /// quantized like the RTL's constant.
  void build_plan(std::size_t n, avg_plan& plan) const {
    plan.samples_per_quadrature = n;
    plan.groups = groups_;
    plan.bounds.resize(groups_ + 1);
    plan.scale.resize(2 * groups_ + 1);
    for (std::size_t g = 0; g <= groups_; ++g) {
      plan.bounds[g] = static_cast<std::uint32_t>(g * n / groups_);
    }
    for (std::size_t g = 0; g < groups_; ++g) {
      plan.scale[g] =
          Fixed::from_double(
              1.0 / static_cast<double>(plan.bounds[g + 1] - plan.bounds[g]))
              .raw();
      plan.scale[groups_ + g] = plan.scale[g];
    }
    plan.scale[2 * groups_] = std::int64_t{1} << Fixed::frac_bits;
  }

  /// The plan built at construction when it fits this duration, else
  /// `spare`, rebuilt only when it was built for another duration or G.
  const avg_plan& plan_for(std::size_t n, avg_plan& spare) const {
    if (plan_.samples_per_quadrature == n) return plan_;
    if (spare.samples_per_quadrature != n || spare.groups != groups_) {
      build_plan(n, spare);
    }
    return spare;
  }

  /// The AVG sums from the row's prefix sums, then the AVG post-scale and
  /// NORM over the contiguous feature row, one write per feature into
  /// `out`. Each step is the kernel arithmetic of fixed_kernels.hpp, so each
  /// feature is bit-identical to the fixed<I,F> reference: an exact int64
  /// group sum saturated once (fixed_accumulator), the reciprocal multiply
  /// through the post-scaler (fixed::operator*), and the NORM shift
  /// (shifted_right / shifted_left).
  void finish_features(const std::int32_t* row, std::int64_t mf_raw,
                       const avg_plan& plan, frontend_scratch& scratch,
                       std::int32_t* out, std::size_t out_stride) const {
    const std::size_t n = plan.samples_per_quadrature;
    scratch.prefix.resize(2 * n + 1);
    scratch.sums.resize(output_width());
    std::int64_t* sums = scratch.sums.data();
    fx::kernels::prefix_sum(row, 2 * n, scratch.prefix.data());
    fx::kernels::group_sums(scratch.prefix.data(), n, plan.bounds.data(),
                            groups_, sums);
    if (use_mf_) sums[2 * groups_] = mf_raw;
    fx::kernels::scale_norm_row(
        sums,
        {plan.scale.data(), norm_offset_.data(), norm_right_.data(),
         norm_left_.data()},
        output_width(), out, out_stride, kSpec);
  }

  std::size_t groups_ = 0;
  bool use_mf_ = false;
  std::vector<Fixed> mf_envelope_;
  std::vector<Fixed> x_min_;
  std::vector<int> shift_;
  // Fast-path configuration constants, built once like the parameter BRAM:
  // the raw envelope, the AVG plan for the duration the envelope pins (no
  // plan without MF), and each feature's NORM offset and shifts.
  aligned_vector<std::int32_t> mf_envelope_raw_;
  avg_plan plan_;
  std::vector<std::int64_t> norm_offset_;
  std::vector<std::int64_t> norm_right_;
  std::vector<std::int64_t> norm_left_;
};

}  // namespace klinq::hw
