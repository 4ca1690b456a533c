// Student distillation (paper §III-C/D).
//
// A student is the compact deployment unit: a feature pipeline (averaging +
// matched filter + power-of-two normalization) feeding a tiny FNN
// (2G+1)-16-8-1. Training minimizes the composite loss
//     L = α·L_CE(hard labels) + (1 − α)·L_KD(teacher soft labels)
// where the teacher logits are precomputed once per dataset.
//
// Setting α = 1 disables distillation (pure supervised training) — the
// ablation benches use this to quantify what knowledge transfer buys.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "klinq/data/trace_dataset.hpp"
#include "klinq/dsp/feature_pipeline.hpp"
#include "klinq/nn/loss.hpp"
#include "klinq/nn/network.hpp"

namespace klinq::kd {

struct student_config {
  /// Averaging groups per quadrature: 15 → FNN-A (31 inputs),
  /// 100 → FNN-B (201 inputs).
  std::size_t groups_per_quadrature = 15;
  std::vector<std::size_t> hidden = {16, 8};
  bool use_matched_filter = true;
  dsp::norm_mode normalization = dsp::norm_mode::pow2_shift;
  nn::distillation_config distillation{};
  std::size_t epochs = 60;
  std::size_t batch_size = 32;
  float learning_rate = 2e-3f;
  /// Mild L2 keeps the 201-input FNN-B student from memorizing noise.
  float weight_decay = 1e-4f;
  float lr_decay = 0.97f;
  std::uint64_t seed = 7;
  /// Warm start (borrowed, may be null): initialize training from this
  /// network's weights instead of a fresh He-normal draw. The topology must
  /// match the config's. Used by the registry's background recalibration —
  /// readout drift moves the feature distribution gradually, so the
  /// pre-drift weights are a far better starting point than noise and
  /// converge in fewer epochs on the fresh calibration shots.
  const nn::network* warm_start = nullptr;
};

/// Reusable buffers for student_model::predict_batch: the network's panel +
/// plane arena, which the fused extract→logits path writes tiles into.
/// Reusing one scratch across calls of the same batch size makes evaluation
/// allocation-free.
struct student_scratch {
  nn::inference_scratch net;
};


/// A deployable student: feature pipeline + compact network.
class student_model {
 public:
  student_model() = default;
  student_model(dsp::feature_pipeline pipeline, nn::network net);

  const dsp::feature_pipeline& pipeline() const noexcept { return pipeline_; }
  const nn::network& net() const noexcept { return net_; }

  std::size_t parameter_count() const noexcept {
    return net_.parameter_count();
  }

  /// Raw logit for one flattened trace.
  float logit(std::span<const float> trace,
              std::size_t samples_per_quadrature) const;

  /// Hard state decision (logit >= 0) — the FPGA's sign-bit readout.
  bool predict_state(std::span<const float> trace,
                     std::size_t samples_per_quadrature) const;

  /// Batched inference over a whole dataset: fused extract→FC→logits tiles
  /// (dsp::batch_extractor::extract_tile feeding the float plane kernels),
  /// parallelized over tile-aligned chunks. Writes one logit per dataset row
  /// into `logits_out`. Logits are invariant to batch size, chunking and
  /// worker count within the active float tier, and match logit() per trace
  /// to rounding tolerance (the single-shot path reduces in dot order).
  void predict_batch(const data::trace_dataset& dataset,
                     std::span<float> logits_out,
                     student_scratch& scratch) const;

  /// Convenience overload with internal scratch.
  std::vector<float> predict_batch(const data::trace_dataset& dataset) const;

  /// Serial float-path evaluation of dataset rows [row_begin, row_end)
  /// through caller-provided scratch: fused extract→FC→logits per 64-shot
  /// tile out of the scratch arenas, with logits_out[r - row_begin] for each
  /// row r. Bitwise-identical to predict_batch on the same rows and zero
  /// steady-state allocation once the scratch is warm — the serve engine's
  /// float shard executor.
  void predict_block(const data::trace_dataset& dataset, std::size_t row_begin,
                     std::size_t row_end, std::span<float> logits_out,
                     student_scratch& scratch) const;

  /// Assignment accuracy on a dataset (batched path).
  double accuracy(const data::trace_dataset& dataset) const;

  void save(std::ostream& out) const;
  static student_model load(std::istream& in);

 private:
  dsp::feature_pipeline pipeline_;
  nn::network net_;
};

/// Distills a student from precomputed teacher logits (one per train row).
/// Pass an empty span to train without distillation (hard labels only).
student_model distill_student(const data::trace_dataset& train,
                              std::span<const float> teacher_logits,
                              const student_config& config);

/// Network compression rate: 1 − student/teacher (paper §V-C).
double compression_rate(std::size_t teacher_params,
                        std::size_t student_params);

}  // namespace klinq::kd
