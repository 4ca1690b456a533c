// Fully connected layer: y = act(x · Wᵀ + b).
//
// Weights are stored (out × in) row-major so both the forward pass
// (gemm_nt) and the FPGA weight export walk a neuron's weights contiguously,
// mirroring how the RTL streams one neuron's multiplicands.
#pragma once

#include <cstddef>
#include <span>

#include "klinq/common/rng.hpp"
#include "klinq/linalg/matrix.hpp"
#include "klinq/nn/activation.hpp"
#include "klinq/nn/init.hpp"

namespace klinq::nn {

class dense_layer {
 public:
  dense_layer() = default;

  dense_layer(std::size_t in_dim, std::size_t out_dim, activation act);

  std::size_t in_dim() const noexcept { return weights_.cols(); }
  std::size_t out_dim() const noexcept { return weights_.rows(); }
  activation act() const noexcept { return act_; }

  la::matrix_f& weights() noexcept { return weights_; }
  const la::matrix_f& weights() const noexcept { return weights_; }
  std::span<float> bias() noexcept { return std::span<float>(bias_); }
  std::span<const float> bias() const noexcept {
    return std::span<const float>(bias_);
  }

  std::size_t parameter_count() const noexcept {
    return weights_.size() + bias_.size();
  }

  void initialize(weight_init scheme, xoshiro256& rng);

  /// Forward for a batch: writes pre-activation into `pre` (batch × out) and
  /// post-activation into `post`. `pre` and `post` are resized as needed.
  /// For identity activation the two are equal, so the GEMM writes straight
  /// into `post` and `pre` is left untouched — callers wanting the
  /// pre-activation of an identity layer should read `post`.
  void forward(const la::matrix_f& input, la::matrix_f& pre,
               la::matrix_f& post) const;

  /// Inference-only batch forward: GEMM into `out` (resized to batch × out),
  /// activation applied in place. No pre-activation is kept, so steady-state
  /// evaluation through a reused `out` performs no allocation.
  void forward_inference(const la::matrix_f& input, la::matrix_f& out) const;

  /// Single-sample forward into caller-provided buffer (inference hot path).
  void forward_single(std::span<const float> input,
                      std::span<float> output) const;

  /// Backward pass. `d_pre` is dLoss/d(pre-activation) for this layer
  /// (batch × out); `input` is the layer input (batch × in).
  /// Produces weight/bias gradients and, if `d_input` is non-null,
  /// dLoss/d(input) for the previous layer.
  void backward(const la::matrix_f& input, const la::matrix_f& d_pre,
                la::matrix_f& d_weights, std::span<float> d_bias,
                la::matrix_f* d_input) const;

 private:
  la::matrix_f weights_;       // (out × in)
  std::vector<float> bias_;    // (out)
  activation act_ = activation::identity;
};

}  // namespace klinq::nn
