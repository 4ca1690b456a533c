// Training losses on logits.
//
// All losses implement loss_fn: given the final-layer logits for a minibatch
// and the indices of the samples in that minibatch, they return the scalar
// loss and fill dLoss/dLogits (already divided by batch size, so the
// optimizer sees per-sample-averaged gradients).
//
// The distillation composite is the paper's Eq. (3):
//     L_distill = α · L_CE + (1 − α) · L_KD
// where L_CE is binary cross-entropy against hard labels and L_KD is the MSE
// between temperature-softened teacher and student outputs. Two softening
// conventions are provided: `soft_probability` (MSE of σ(z/T), the default)
// and `raw_logit` (MSE of z/T), since the paper says "softened logits" but
// distillation literature commonly softens through the nonlinearity.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "klinq/linalg/matrix.hpp"

namespace klinq::nn {

class loss_fn {
 public:
  virtual ~loss_fn() = default;

  /// Computes the minibatch loss and writes dLoss/dLogits into d_logits
  /// (resized to logits' shape). `sample_indices[i]` is the dataset row of
  /// minibatch row i, used to look up labels / teacher targets.
  virtual double compute(const la::matrix_f& logits,
                         std::span<const std::size_t> sample_indices,
                         la::matrix_f& d_logits) const = 0;
};

/// Binary cross-entropy with logits (numerically stable log1p form).
class bce_with_logits_loss final : public loss_fn {
 public:
  /// labels[i] in {0, 1} for dataset row i. The span must outlive the loss.
  explicit bce_with_logits_loss(std::span<const float> labels);

  double compute(const la::matrix_f& logits,
                 std::span<const std::size_t> sample_indices,
                 la::matrix_f& d_logits) const override;

 private:
  std::span<const float> labels_;
};

enum class soften_mode { soft_probability, raw_logit };

struct distillation_config {
  /// Weight of the hard-label CE term; (1 − alpha) weighs the KD term.
  double alpha = 0.5;
  /// Softening temperature T >= 1.
  double temperature = 2.0;
  soften_mode mode = soften_mode::soft_probability;
};

/// The paper's composite distillation loss.
class distillation_loss final : public loss_fn {
 public:
  /// `labels` are hard labels; `teacher_logits` are the pre-computed raw
  /// teacher outputs for every dataset row. Both must outlive the loss.
  distillation_loss(std::span<const float> labels,
                    std::span<const float> teacher_logits,
                    distillation_config config);

  double compute(const la::matrix_f& logits,
                 std::span<const std::size_t> sample_indices,
                 la::matrix_f& d_logits) const override;

  const distillation_config& config() const noexcept { return config_; }

 private:
  bce_with_logits_loss hard_loss_;
  std::span<const float> teacher_logits_;
  distillation_config config_;
};

}  // namespace klinq::nn
