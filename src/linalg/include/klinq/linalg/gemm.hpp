// Threaded single-precision matrix kernels for NN training.
//
// Two layouts cover the backward pass without materializing transposes:
//   gemm_nn : C = A · B    (backward:  dX[b,i] = dY[b,o] · W[o,i] as A·B)
//   gemm_tn : C = Aᵀ · B   (gradient:  dW[o,i] = dY[b,o]ᵀ · X[b,i])
// with an accumulate option where the trainer needs it. The forward pass
// (C = A · Bᵀ) runs on the dispatched klinq/nn/kernels.hpp drivers.
// Both kernels parallelize over row blocks of C via the global thread pool.
#pragma once

#include <span>

#include "klinq/linalg/matrix.hpp"

namespace klinq::la {

/// C = A(m×k) · B(k×n) → (m×n). `accumulate` adds into C instead of
/// overwriting.
void gemm_nn(const matrix_f& a, const matrix_f& b, matrix_f& c,
             bool accumulate = false);

/// C = A(k×m)ᵀ · B(k×n) → (m×n).
void gemm_tn(const matrix_f& a, const matrix_f& b, matrix_f& c,
             bool accumulate = false);

/// y = M(m×n) · x(n) (+ bias). y must have m entries.
void gemv(const matrix_f& m, std::span<const float> x, std::span<float> y,
          std::span<const float> bias = {});

/// Dot product of equal-length spans.
float dot(std::span<const float> a, std::span<const float> b);

/// y += alpha * x.
void axpy(float alpha, std::span<const float> x, std::span<float> y);

/// Column-wise sum of a (rows×cols) matrix into out(cols); used for bias
/// gradients. `accumulate` adds into out.
void column_sums(const matrix_f& m, std::span<float> out,
                 bool accumulate = false);

}  // namespace klinq::la
