#include "klinq/linalg/gemm.hpp"

#include <algorithm>
#include <cstddef>

#include "klinq/common/thread_pool.hpp"

namespace klinq::la {

namespace {

/// Rows of C below which threading overhead outweighs the work.
constexpr std::size_t kParallelRowThreshold = 8;

/// Flops below which we always stay single-threaded.
constexpr std::size_t kParallelFlopThreshold = 1u << 16;

template <class Body>
void for_each_row_block(std::size_t rows, std::size_t flops, Body&& body) {
  if (rows < kParallelRowThreshold || flops < kParallelFlopThreshold) {
    body(0, rows);
    return;
  }
  parallel_for_chunked(0, rows, body);
}

/// Shared dot-product reduction: four independent accumulator lanes over the
/// unrolled body, lanes combined pairwise, scalar tail. gemv rows and dot()
/// both reduce in exactly this order.
inline float dot_lanes(const float* a, const float* b, std::size_t k) {
  float acc0 = 0.0f;
  float acc1 = 0.0f;
  float acc2 = 0.0f;
  float acc3 = 0.0f;
  std::size_t p = 0;
  for (; p + 4 <= k; p += 4) {
    acc0 += a[p] * b[p];
    acc1 += a[p + 1] * b[p + 1];
    acc2 += a[p + 2] * b[p + 2];
    acc3 += a[p + 3] * b[p + 3];
  }
  float acc = (acc0 + acc1) + (acc2 + acc3);
  for (; p < k; ++p) acc += a[p] * b[p];
  return acc;
}

}  // namespace

void gemm_nn(const matrix_f& a, const matrix_f& b, matrix_f& c,
             bool accumulate) {
  KLINQ_REQUIRE(a.cols() == b.rows(), "gemm_nn: inner dimensions differ");
  KLINQ_REQUIRE(c.rows() == a.rows() && c.cols() == b.cols(),
                "gemm_nn: output shape mismatch");
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();

  for_each_row_block(m, m * n * k, [&](std::size_t row_begin,
                                       std::size_t row_end) {
    for (std::size_t i = row_begin; i < row_end; ++i) {
      const float* a_row = a.data() + i * k;
      float* c_row = c.data() + i * n;
      if (!accumulate) std::fill(c_row, c_row + n, 0.0f);
      // i-k-j loop order: unit-stride access to both B and C rows.
      for (std::size_t p = 0; p < k; ++p) {
        const float a_val = a_row[p];
        if (a_val == 0.0f) continue;
        const float* b_row = b.data() + p * n;
        for (std::size_t j = 0; j < n; ++j) c_row[j] += a_val * b_row[j];
      }
    }
  });
}

void gemm_tn(const matrix_f& a, const matrix_f& b, matrix_f& c,
             bool accumulate) {
  KLINQ_REQUIRE(a.rows() == b.rows(), "gemm_tn: inner dimensions differ");
  KLINQ_REQUIRE(c.rows() == a.cols() && c.cols() == b.cols(),
                "gemm_tn: output shape mismatch");
  const std::size_t k = a.rows();  // summed dimension (batch)
  const std::size_t m = a.cols();
  const std::size_t n = b.cols();

  // Parallelize over rows of C (= columns of A) so no two workers write the
  // same output row; each walks the full batch.
  for_each_row_block(m, m * n * k, [&](std::size_t row_begin,
                                       std::size_t row_end) {
    for (std::size_t i = row_begin; i < row_end; ++i) {
      float* c_row = c.data() + i * n;
      if (!accumulate) std::fill(c_row, c_row + n, 0.0f);
      for (std::size_t p = 0; p < k; ++p) {
        const float a_val = a(p, i);
        if (a_val == 0.0f) continue;
        const float* b_row = b.data() + p * n;
        for (std::size_t j = 0; j < n; ++j) c_row[j] += a_val * b_row[j];
      }
    }
  });
}

void gemv(const matrix_f& m, std::span<const float> x, std::span<float> y,
          std::span<const float> bias) {
  KLINQ_REQUIRE(x.size() == m.cols(), "gemv: x length must equal cols");
  KLINQ_REQUIRE(y.size() == m.rows(), "gemv: y length must equal rows");
  KLINQ_REQUIRE(bias.empty() || bias.size() == m.rows(),
                "gemv: bias length must equal rows");
  // The bias is added after the reduction (dot_lanes order), so a gemv row
  // is a fixed scalar reference for one row of a forward GEMM.
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const float* row = m.data() + i * m.cols();
    float acc = dot_lanes(row, x.data(), m.cols());
    if (!bias.empty()) acc += bias[i];
    y[i] = acc;
  }
}

float dot(std::span<const float> a, std::span<const float> b) {
  KLINQ_REQUIRE(a.size() == b.size(), "dot: length mismatch");
  return dot_lanes(a.data(), b.data(), a.size());
}

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  KLINQ_REQUIRE(x.size() == y.size(), "axpy: length mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void column_sums(const matrix_f& m, std::span<float> out, bool accumulate) {
  KLINQ_REQUIRE(out.size() == m.cols(), "column_sums: output length mismatch");
  if (!accumulate) std::fill(out.begin(), out.end(), 0.0f);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const float* row = m.data() + i * m.cols();
    for (std::size_t j = 0; j < m.cols(); ++j) out[j] += row[j];
  }
}

}  // namespace klinq::la
