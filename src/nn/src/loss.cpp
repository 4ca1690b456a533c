#include "klinq/nn/loss.hpp"

#include <cmath>

#include "klinq/common/error.hpp"
#include "klinq/common/math.hpp"

namespace klinq::nn {

namespace {

void prepare_gradient(const la::matrix_f& logits, la::matrix_f& d_logits) {
  KLINQ_REQUIRE(logits.cols() == 1,
                "binary losses expect a single logit column");
  if (d_logits.rows() != logits.rows() || d_logits.cols() != logits.cols()) {
    d_logits.resize(logits.rows(), logits.cols());
  }
}

/// log(1 + e^x) without overflow.
double softplus(double x) noexcept {
  return x > 0.0 ? x + std::log1p(std::exp(-x)) : std::log1p(std::exp(x));
}

}  // namespace

bce_with_logits_loss::bce_with_logits_loss(std::span<const float> labels)
    : labels_(labels) {}

double bce_with_logits_loss::compute(
    const la::matrix_f& logits, std::span<const std::size_t> sample_indices,
    la::matrix_f& d_logits) const {
  prepare_gradient(logits, d_logits);
  KLINQ_REQUIRE(sample_indices.size() == logits.rows(),
                "bce: minibatch index count mismatch");
  const double inv_batch = 1.0 / static_cast<double>(logits.rows());
  double loss = 0.0;
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    const std::size_t row = sample_indices[i];
    KLINQ_REQUIRE(row < labels_.size(), "bce: sample index out of range");
    const double z = logits(i, 0);
    const double y = labels_[row];
    // BCE(z, y) = softplus(z) − y·z ; d/dz = σ(z) − y.
    loss += softplus(z) - y * z;
    d_logits(i, 0) = static_cast<float>((sigmoid(z) - y) * inv_batch);
  }
  return loss * inv_batch;
}

distillation_loss::distillation_loss(std::span<const float> labels,
                                     std::span<const float> teacher_logits,
                                     distillation_config config)
    : hard_loss_(labels), teacher_logits_(teacher_logits), config_(config) {
  KLINQ_REQUIRE(config.alpha >= 0.0 && config.alpha <= 1.0,
                "distillation: alpha must be in [0, 1]");
  KLINQ_REQUIRE(config.temperature >= 1.0,
                "distillation: temperature must be >= 1");
}

double distillation_loss::compute(const la::matrix_f& logits,
                                  std::span<const std::size_t> sample_indices,
                                  la::matrix_f& d_logits) const {
  prepare_gradient(logits, d_logits);
  KLINQ_REQUIRE(sample_indices.size() == logits.rows(),
                "distillation: minibatch index count mismatch");

  // Hard-label CE term (fills d_logits).
  const double ce = hard_loss_.compute(logits, sample_indices, d_logits);

  // Soft (KD) term, accumulated on top with weight (1 − alpha).
  const double alpha = config_.alpha;
  const double temperature = config_.temperature;
  const double inv_batch = 1.0 / static_cast<double>(logits.rows());
  double kd = 0.0;
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    const std::size_t row = sample_indices[i];
    KLINQ_REQUIRE(row < teacher_logits_.size(),
                  "distillation: teacher logit index out of range");
    const double zs = logits(i, 0);
    const double zt = teacher_logits_[row];
    double term = 0.0;
    double d_term = 0.0;
    if (config_.mode == soften_mode::soft_probability) {
      const double ps = sigmoid(zs / temperature);
      const double pt = sigmoid(zt / temperature);
      const double err = ps - pt;
      term = err * err;
      d_term = 2.0 * err * ps * (1.0 - ps) / temperature;
    } else {
      const double err = (zs - zt) / temperature;
      term = err * err;
      d_term = 2.0 * err / temperature;
    }
    kd += term;
    d_logits(i, 0) = static_cast<float>(
        alpha * d_logits(i, 0) + (1.0 - alpha) * d_term * inv_batch);
  }
  kd *= inv_batch;

  // Scale the CE part of the gradient was already applied per-element above;
  // combine scalar losses the same way.
  return alpha * ce + (1.0 - alpha) * kd;
}

}  // namespace klinq::nn
