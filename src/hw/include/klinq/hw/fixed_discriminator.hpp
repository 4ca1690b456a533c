// End-to-end fixed-point qubit discriminator: the deployable FPGA model.
//
// Combines the fixed front-end (AVG/NORM/MF) with the quantized student
// network. predict_state() is the full ADC-to-decision path in hardware
// numerics; agreement_with_float() quantifies how often the fixed datapath
// reproduces the float model's decision (the paper's "maintains
// discrimination accuracy" claim for Q16.16).
//
// Every fast-path entry point (logit, both branches of logits_block, and
// logits_lanes) runs one front-end sweep per shot,
// fixed_frontend::extract_trace, which writes the shot's features straight
// into the network's input: a contiguous row for the row kernel, or one lane
// of a feature-major 64-shot plane for the tile kernels. Dataset-scale
// evaluation goes through logits(), which cuts the dataset into
// cache-blocked tiles and parallelizes them over the global thread pool with
// one scratch arena per worker chunk — bit-identical to the single-shot
// path.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "klinq/common/aligned.hpp"
#include "klinq/common/thread_pool.hpp"
#include "klinq/data/trace_dataset.hpp"
#include "klinq/hw/fixed_frontend.hpp"
#include "klinq/hw/quantized_network.hpp"
#include "klinq/kd/distiller.hpp"

namespace klinq::hw {

/// Reusable buffers for the full trace→decision path: the quantized trace
/// register file, a feature tile, and the network's ping-pong arena. The
/// kernel fast path (32-bit formats) uses `frontend` (the per-shot register
/// row) and raw int32 registers for the feature-major feature plane and the
/// tile's output logits.
template <class Fixed>
struct discriminator_scratch {
  std::vector<Fixed> trace;
  la::matrix<Fixed> features;
  quantized_scratch<Fixed> net;
  frontend_scratch frontend;
  aligned_vector<std::int32_t> plane_raw;
  aligned_vector<std::int32_t> logits_raw;
};

template <class Fixed>
class fixed_discriminator {
 public:
  fixed_discriminator() = default;

  /// Quantizes a trained student model into hardware form.
  explicit fixed_discriminator(const kd::student_model& student)
      : frontend_(student.pipeline()), net_(student.net()) {
    KLINQ_REQUIRE(frontend_.output_width() == net_.input_dim(),
                  "fixed_discriminator: front-end/network width mismatch");
  }

  const fixed_frontend<Fixed>& frontend() const noexcept { return frontend_; }
  const quantized_network<Fixed>& net() const noexcept { return net_; }

  /// Output logit register for one float (ADC) trace, through caller-provided
  /// scratch (allocation-free when reused).
  Fixed logit(std::span<const float> trace, std::size_t samples_per_quadrature,
              discriminator_scratch<Fixed>& scratch) const {
    if constexpr (quantized_network<Fixed>::kernel_fast_path) {
      // Raw-register pipeline, exactly like one lane of logits_block — the
      // mid-circuit repeated-measurement hot path.
      scratch.plane_raw.resize(frontend_.output_width());
      frontend_.extract_trace(trace, samples_per_quadrature, scratch.frontend,
                              scratch.plane_raw.data(), 1);
      return Fixed::from_raw(
          net_.forward_logit_raw(scratch.plane_raw.data(), scratch.net));
    } else {
      scratch.trace.resize(trace.size());
      fixed_frontend<Fixed>::quantize_trace(trace, scratch.trace);
      if (scratch.features.rows() != 1 ||
          scratch.features.cols() != frontend_.output_width()) {
        scratch.features.resize(1, frontend_.output_width());
      }
      frontend_.extract(scratch.trace, samples_per_quadrature,
                        scratch.features.row(0));
      return net_.forward_logit(scratch.features.row(0), scratch.net);
    }
  }

  /// Convenience single-shot overload (allocates its own scratch).
  Fixed logit(std::span<const float> trace,
              std::size_t samples_per_quadrature) const {
    discriminator_scratch<Fixed> scratch;
    return logit(trace, samples_per_quadrature, scratch);
  }

  /// Per-shot decision through caller-provided scratch — the repeated-
  /// measurement (mid-circuit) hot path: zero allocation once the scratch
  /// is warm.
  bool predict_state(std::span<const float> trace,
                     std::size_t samples_per_quadrature,
                     discriminator_scratch<Fixed>& scratch) const {
    return !logit(trace, samples_per_quadrature, scratch).sign_bit();
  }

  bool predict_state(std::span<const float> trace,
                     std::size_t samples_per_quadrature) const {
    return !logit(trace, samples_per_quadrature).sign_bit();
  }

  /// Serial ADC-to-logit evaluation of dataset rows [row_begin, row_end)
  /// through caller-provided scratch: quantize + extract into cache-blocked
  /// tiles, then the batched fixed-point forward. Writes out[r - row_begin]
  /// for each row r; bit-identical to logit() per trace. Zero steady-state
  /// allocation once the scratch is warm — this is the serve engine's shard
  /// executor.
  void logits_block(const data::trace_dataset& dataset, std::size_t row_begin,
                    std::size_t row_end, std::span<Fixed> out,
                    discriminator_scratch<Fixed>& scratch) const {
    KLINQ_REQUIRE(row_begin <= row_end && row_end <= dataset.size(),
                  "fixed_discriminator: row range out of bounds");
    KLINQ_REQUIRE(out.size() == row_end - row_begin,
                  "fixed_discriminator: one logit per row required");
    const std::size_t n = dataset.samples_per_quadrature();
    const std::size_t width = frontend_.output_width();
    constexpr std::size_t kTile = quantized_network<Fixed>::kBatchTile;
    if constexpr (quantized_network<Fixed>::kernel_fast_path) {
      // Raw-register pipeline: one front-end sweep per shot straight into
      // the feature-major plane, then the whole tile through the dispatched
      // kernels — no fixed<I,F> temporaries anywhere on the hot path.
      scratch.plane_raw.resize(width * kTile);
      scratch.logits_raw.resize(kTile);
      for (std::size_t tile_begin = row_begin; tile_begin < row_end;
           tile_begin += kTile) {
        const std::size_t tile = std::min(kTile, row_end - tile_begin);
        if (tile < 4) {
          // Too few shots for the tile kernel's lanes: extract contiguously
          // and run the row kernel, which vectorizes along the features.
          for (std::size_t s = 0; s < tile; ++s) {
            frontend_.extract_trace(dataset.trace(tile_begin + s), n,
                                    scratch.frontend, scratch.plane_raw.data(),
                                    1);
            out[tile_begin - row_begin + s] = Fixed::from_raw(
                net_.forward_logit_raw(scratch.plane_raw.data(),
                                       scratch.net));
          }
          continue;
        }
        for (std::size_t s = 0; s < tile; ++s) {
          frontend_.extract_trace(dataset.trace(tile_begin + s), n,
                                  scratch.frontend,
                                  scratch.plane_raw.data() + s, kTile);
        }
        net_.forward_logits_plane(scratch.plane_raw.data(), tile,
                                  scratch.logits_raw.data(), scratch.net);
        for (std::size_t s = 0; s < tile; ++s) {
          out[tile_begin - row_begin + s] =
              Fixed::from_raw(scratch.logits_raw[s]);
        }
      }
    } else {
      scratch.trace.resize(dataset.feature_width());
      for (std::size_t tile_begin = row_begin; tile_begin < row_end;
           tile_begin += kTile) {
        const std::size_t tile = std::min(kTile, row_end - tile_begin);
        if (scratch.features.rows() != tile ||
            scratch.features.cols() != width) {
          scratch.features.resize(tile, width);
        }
        for (std::size_t s = 0; s < tile; ++s) {
          fixed_frontend<Fixed>::quantize_trace(dataset.trace(tile_begin + s),
                                                scratch.trace);
          frontend_.extract(scratch.trace, n, scratch.features.row(s));
        }
        net_.forward_logits(scratch.features,
                            out.subspan(tile_begin - row_begin, tile),
                            scratch.net);
      }
    }
  }

  /// Lane-packed single-shot evaluation: one row drawn from each of `lanes`
  /// (possibly distinct) datasets, pushed through one shared feature plane
  /// and one network tile. datasets[s]/rows[s] name lane s's trace; out[s]
  /// receives its logit. Bit-identical to logit()/logits_block() per trace —
  /// the integer datapath is exact, so lane position and tile width never
  /// change a register. This is the serve coalescer's cross-request
  /// lane-pack executor. Requires 0 < lanes <= kBatchTile.
  void logits_lanes(const data::trace_dataset* const* datasets,
                    const std::size_t* rows, std::size_t lanes,
                    std::span<Fixed> out,
                    discriminator_scratch<Fixed>& scratch) const {
    constexpr std::size_t kTile = quantized_network<Fixed>::kBatchTile;
    KLINQ_REQUIRE(lanes > 0 && lanes <= kTile,
                  "fixed_discriminator: lane count exceeds the network tile");
    KLINQ_REQUIRE(out.size() == lanes,
                  "fixed_discriminator: one logit per lane required");
    if constexpr (quantized_network<Fixed>::kernel_fast_path) {
      const std::size_t width = frontend_.output_width();
      scratch.plane_raw.resize(width * kTile);
      scratch.logits_raw.resize(kTile);
      for (std::size_t s = 0; s < lanes; ++s) {
        const data::trace_dataset& ds = *datasets[s];
        frontend_.extract_trace(ds.trace(rows[s]), ds.samples_per_quadrature(),
                                scratch.frontend,
                                scratch.plane_raw.data() + s, kTile);
      }
      net_.forward_logits_plane(scratch.plane_raw.data(), lanes,
                                scratch.logits_raw.data(), scratch.net);
      for (std::size_t s = 0; s < lanes; ++s) {
        out[s] = Fixed::from_raw(scratch.logits_raw[s]);
      }
    } else {
      // Wide formats stay on the fixed<I,F> reference path per lane.
      for (std::size_t s = 0; s < lanes; ++s) {
        out[s] = logit(datasets[s]->trace(rows[s]),
                       datasets[s]->samples_per_quadrature(), scratch);
      }
    }
  }

  /// Batched ADC-to-logit evaluation: one output register per dataset row.
  /// Parallelized over trace blocks; bit-identical to logit() per trace.
  void logits(const data::trace_dataset& dataset, std::span<Fixed> out) const {
    KLINQ_REQUIRE(out.size() == dataset.size(),
                  "fixed_discriminator: one logit per trace required");
    if (dataset.empty()) return;
    const auto evaluate_block = [&](std::size_t begin, std::size_t end) {
      // One scratch arena per worker chunk: allocations are per-chunk (a
      // handful per pool dispatch), never per shot.
      discriminator_scratch<Fixed> scratch;
      logits_block(dataset, begin, end, out.subspan(begin, end - begin),
                   scratch);
    };
    if (dataset.size() < quantized_network<Fixed>::kBatchTile) {
      evaluate_block(0, dataset.size());
      return;
    }
    parallel_for_chunked(0, dataset.size(), evaluate_block);
  }

  /// Batched hard decisions (1 = state |1⟩), one per dataset row.
  void predict_states(const data::trace_dataset& dataset,
                      std::span<std::uint8_t> out) const {
    KLINQ_REQUIRE(out.size() == dataset.size(),
                  "fixed_discriminator: one decision per trace required");
    std::vector<Fixed> registers(dataset.size());
    logits(dataset, registers);
    for (std::size_t r = 0; r < registers.size(); ++r) {
      out[r] = registers[r].sign_bit() ? 0 : 1;
    }
  }

  /// Assignment accuracy of the fixed-point datapath on a dataset.
  double accuracy(const data::trace_dataset& dataset) const {
    if (dataset.empty()) return 0.0;
    std::vector<Fixed> registers(dataset.size());
    logits(dataset, registers);
    std::size_t correct = 0;
    for (std::size_t r = 0; r < registers.size(); ++r) {
      const bool predicted = !registers[r].sign_bit();
      correct += (predicted == dataset.label_state(r)) ? 1 : 0;
    }
    return static_cast<double>(correct) /
           static_cast<double>(dataset.size());
  }

  /// Fraction of traces where fixed and float decisions agree.
  double agreement_with_float(const kd::student_model& student,
                              const data::trace_dataset& dataset) const {
    if (dataset.empty()) return 1.0;
    std::vector<Fixed> registers(dataset.size());
    logits(dataset, registers);
    const std::vector<float> float_logits = student.predict_batch(dataset);
    std::size_t agree = 0;
    for (std::size_t r = 0; r < registers.size(); ++r) {
      const bool fixed_decision = !registers[r].sign_bit();
      const bool float_decision = float_logits[r] >= 0.0f;
      agree += (fixed_decision == float_decision) ? 1 : 0;
    }
    return static_cast<double>(agree) / static_cast<double>(dataset.size());
  }

 private:
  fixed_frontend<Fixed> frontend_;
  quantized_network<Fixed> net_;
};

}  // namespace klinq::hw
