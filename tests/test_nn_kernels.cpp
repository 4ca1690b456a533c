// Cross-tier parity harness for the dispatched float kernels
// (klinq/nn/kernels.hpp), mirroring tests/test_fixed_kernels.cpp.
//
// The float tiers are NOT bit-identical to each other (FMA contraction,
// 8-lane reassociation), so cross-tier and kernel-vs-reference comparisons
// are tolerance-based against a double-precision reference. What IS exact,
// and what the fused inference paths rely on, is lane invariance: within a
// tier, a shot's fc_plane output never depends on its lane position, the
// tile width, or the neuron-blocking variant that computed it — proven here
// bitwise on adversarial layouts, random ragged shapes, and under the
// thread pool.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "klinq/common/cpu_dispatch.hpp"
#include "klinq/common/rng.hpp"
#include "klinq/common/thread_pool.hpp"
#include "klinq/linalg/gemm.hpp"
#include "klinq/nn/kernels.hpp"

namespace {

using namespace klinq;
namespace kernels = nn::kernels;

std::vector<float> random_values(xoshiro256& rng, std::size_t n,
                                 double scale = 1.0) {
  std::vector<float> values(n);
  for (auto& v : values) {
    v = static_cast<float>(rng.uniform(-scale, scale));
  }
  return values;
}

/// Tolerance scaled by the magnitude a float reduction of these terms
/// accumulates: a few ULPs of the absolute-value sum.
float reduction_tolerance(double abs_sum) {
  return static_cast<float>(1e-6 * abs_sum) + 1e-6f;
}

// ---------------------------------------------------------------------------
// dot / sum: every tier vs the double-precision reference
// ---------------------------------------------------------------------------

TEST(NnKernels, DotTiersMatchDoubleReference) {
  xoshiro256 rng(2026);
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}, std::size_t{8},
        std::size_t{31}, std::size_t{33}, std::size_t{201}, std::size_t{1000},
        std::size_t{2048}}) {
    for (int trial = 0; trial < 20; ++trial) {
      const auto a = random_values(rng, n);
      const auto b = random_values(rng, n);
      double reference = 0.0;
      double abs_sum = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double product =
            static_cast<double>(a[i]) * static_cast<double>(b[i]);
        reference += product;
        abs_sum += std::fabs(product);
      }
      const float tol = reduction_tolerance(abs_sum);
      EXPECT_NEAR(kernels::scalar::dot(a.data(), b.data(), n), reference, tol)
          << "scalar n=" << n;
      if (kernels::avx2_available()) {
        EXPECT_NEAR(kernels::avx2::dot(a.data(), b.data(), n), reference, tol)
            << "avx2 n=" << n;
      }
      if (kernels::avx512_available()) {
        EXPECT_NEAR(kernels::avx512::dot(a.data(), b.data(), n), reference,
                    tol)
            << "avx512 n=" << n;
      }
      EXPECT_NEAR(kernels::dot(a.data(), b.data(), n), reference, tol)
          << "dispatched n=" << n;
    }
  }
}

TEST(NnKernels, SumTiersMatchDoubleReference) {
  xoshiro256 rng(7);
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{5}, std::size_t{8}, std::size_t{16},
        std::size_t{33}, std::size_t{500}, std::size_t{1000}}) {
    const auto values = random_values(rng, n);
    double reference = 0.0;
    double abs_sum = 0.0;
    for (const float v : values) {
      reference += v;
      abs_sum += std::fabs(v);
    }
    const float tol = reduction_tolerance(abs_sum);
    EXPECT_NEAR(kernels::scalar::sum(values.data(), n), reference, tol);
    if (kernels::avx2_available()) {
      EXPECT_NEAR(kernels::avx2::sum(values.data(), n), reference, tol);
    }
    if (kernels::avx512_available()) {
      EXPECT_NEAR(kernels::avx512::sum(values.data(), n), reference, tol);
    }
    EXPECT_NEAR(kernels::sum(values.data(), n), reference, tol);
  }
}

// The fused extraction kernel: group means on the averager's boundary
// formula plus the matched-filter partial, against a double reference.
// Shapes deliberately include n not divisible by groups (Bresenham
// boundaries), tiny groups, and the paper's 500/15 and 500/100 layouts.
TEST(NnKernels, GroupedMeanDotTiersMatchDoubleReference) {
  xoshiro256 rng(57);
  const struct {
    std::size_t n, groups;
  } shapes[] = {{15, 15}, {16, 3},  {100, 7},  {500, 15},
                {500, 100}, {1000, 15}, {33, 4}};
  for (const auto& shape : shapes) {
    for (const bool weighted : {true, false}) {
      const auto values = random_values(rng, shape.n);
      const auto weights = random_values(rng, shape.n);
      std::vector<double> ref_means(shape.groups);
      double ref_dot = 0.0;
      double dot_abs = 0.0;
      for (std::size_t g = 0; g < shape.groups; ++g) {
        const std::size_t begin = g * shape.n / shape.groups;
        const std::size_t end = (g + 1) * shape.n / shape.groups;
        double sum = 0.0;
        for (std::size_t s = begin; s < end; ++s) {
          sum += values[s];
          if (weighted) {
            const double product = static_cast<double>(values[s]) *
                                   static_cast<double>(weights[s]);
            ref_dot += product;
            dot_abs += std::fabs(product);
          }
        }
        ref_means[g] = sum / static_cast<double>(end - begin);
      }
      const auto check = [&](const char* tier, auto&& kernel) {
        std::vector<float> means(shape.groups, -99.0f);
        const float dot_value =
            kernel(values.data(), weighted ? weights.data() : nullptr,
                   shape.n, shape.groups, means.data());
        for (std::size_t g = 0; g < shape.groups; ++g) {
          ASSERT_NEAR(means[g], ref_means[g], 1e-5)
              << tier << " n=" << shape.n << " groups=" << shape.groups
              << " g=" << g << " weighted=" << weighted;
        }
        if (weighted) {
          ASSERT_NEAR(dot_value, ref_dot, reduction_tolerance(dot_abs))
              << tier << " n=" << shape.n << " groups=" << shape.groups;
        } else {
          ASSERT_EQ(dot_value, 0.0f) << tier;
        }
      };
      check("scalar", [](auto... args) {
        return kernels::scalar::grouped_mean_dot(args...);
      });
      if (kernels::avx2_available()) {
        check("avx2", [](auto... args) {
          return kernels::avx2::grouped_mean_dot(args...);
        });
      }
      if (kernels::avx512_available()) {
        check("avx512", [](auto... args) {
          return kernels::avx512::grouped_mean_dot(args...);
        });
      }
      check("dispatched", [](auto... args) {
        return kernels::grouped_mean_dot(args...);
      });
    }
  }
}

TEST(NnKernels, DispatchedEntryPointsMatchActiveTierBitwise) {
  xoshiro256 rng(99);
  const auto a = random_values(rng, 777);
  const auto b = random_values(rng, 777);
  float expected = 0.0f;
  float expected_sum = 0.0f;
  switch (active_float_simd_tier()) {
    case simd_tier::avx512:
      expected = kernels::avx512::dot(a.data(), b.data(), 777);
      expected_sum = kernels::avx512::sum(a.data(), 777);
      break;
    case simd_tier::avx2:
      expected = kernels::avx2::dot(a.data(), b.data(), 777);
      expected_sum = kernels::avx2::sum(a.data(), 777);
      break;
    case simd_tier::scalar64:
      expected = kernels::scalar::dot(a.data(), b.data(), 777);
      expected_sum = kernels::scalar::sum(a.data(), 777);
      break;
  }
  EXPECT_EQ(kernels::dot(a.data(), b.data(), 777), expected);
  EXPECT_EQ(kernels::sum(a.data(), 777), expected_sum);
}

// ---------------------------------------------------------------------------
// fc_plane: tiers vs reference, pad behavior, lane invariance
// ---------------------------------------------------------------------------

struct plane_case {
  std::size_t out_dim;
  std::size_t in_dim;
  std::size_t lanes;
};

TEST(NnKernels, FcPlaneTiersMatchDoubleReference) {
  xoshiro256 rng(13);
  constexpr std::size_t stride = kernels::max_tile_lanes;
  const plane_case cases[] = {{1, 1, 1},   {3, 7, 5},   {16, 31, 8},
                              {8, 16, 33}, {16, 31, 64}, {1, 201, 17},
                              {5, 2, 64}};
  for (const plane_case& c : cases) {
    for (const bool relu : {false, true}) {
      const std::size_t padded = kernels::padded_lanes(c.lanes);
      const auto weights = random_values(rng, c.out_dim * c.in_dim);
      const auto bias = random_values(rng, c.out_dim);
      // Build the plane through pack_rows so pads are zero-filled exactly as
      // the drivers do it.
      const auto rows = random_values(rng, c.lanes * c.in_dim, 2.0);
      std::vector<float> plane(c.in_dim * stride, -7.0f);
      kernels::pack_rows(rows.data(), c.lanes, c.in_dim, c.in_dim,
                         plane.data(), stride);
      // Double reference per (neuron, lane).
      std::vector<float> sentinel(c.out_dim * stride, 123.5f);
      const auto run_and_check = [&](const char* tier, auto&& kernel) {
        std::vector<float> out = sentinel;
        kernel(weights.data(), bias.data(), c.out_dim, c.in_dim, plane.data(),
               c.lanes, stride, relu, out.data());
        for (std::size_t o = 0; o < c.out_dim; ++o) {
          for (std::size_t s = 0; s < c.lanes; ++s) {
            double reference = bias[o];
            double abs_sum = std::fabs(bias[o]);
            for (std::size_t i = 0; i < c.in_dim; ++i) {
              const double product =
                  static_cast<double>(weights[o * c.in_dim + i]) *
                  static_cast<double>(rows[s * c.in_dim + i]);
              reference += product;
              abs_sum += std::fabs(product);
            }
            if (relu && reference < 0.0) reference = 0.0;
            // Near-zero pre-activations can land on either side of the ReLU
            // hinge in float; widen by the same tolerance on both sides.
            ASSERT_NEAR(out[o * stride + s], reference,
                        reduction_tolerance(abs_sum))
                << tier << " out=" << c.out_dim << " in=" << c.in_dim
                << " lanes=" << c.lanes << " relu=" << relu << " o=" << o
                << " s=" << s;
          }
          // Lanes beyond the padded group are never written.
          for (std::size_t s = padded; s < stride; ++s) {
            ASSERT_EQ(out[o * stride + s], 123.5f) << tier << " pad lane";
          }
        }
      };
      run_and_check("scalar", [](auto... args) {
        kernels::scalar::fc_plane(args...);
      });
      if (kernels::avx2_available()) {
        run_and_check("avx2", [](auto... args) {
          kernels::avx2::fc_plane(args...);
        });
      }
      if (kernels::avx512_available()) {
        run_and_check("avx512", [](auto... args) {
          kernels::avx512::fc_plane(args...);
        });
      }
      run_and_check("dispatched", [](auto... args) {
        kernels::fc_plane(args...);
      });
    }
  }
}

// The exactness keystone: a shot's output is bitwise identical wherever it
// sits in a tile, whatever the tile width, and whichever neuron-blocking
// variant computes it. The fused/unfused and sharded/serial float paths
// depend on this.
TEST(NnKernels, FcPlaneLaneInvariantWithinTier) {
  xoshiro256 rng(41);
  constexpr std::size_t stride = kernels::max_tile_lanes;
  const std::size_t out_dim = 5;  // odd: exercises the neuron-pair tail
  const std::size_t in_dim = 31;
  const auto weights = random_values(rng, out_dim * in_dim);
  const auto bias = random_values(rng, out_dim);
  const auto shot = random_values(rng, in_dim, 2.0);

  const auto value_at = [&](auto&& kernel, std::size_t lane,
                            std::size_t lanes, std::size_t neuron,
                            xoshiro256& filler_rng) {
    // Surround the probed shot with random lane neighbours.
    std::vector<float> rows = random_values(filler_rng, lanes * in_dim, 2.0);
    for (std::size_t i = 0; i < in_dim; ++i) {
      rows[lane * in_dim + i] = shot[i];
    }
    std::vector<float> plane(in_dim * stride);
    kernels::pack_rows(rows.data(), lanes, in_dim, in_dim, plane.data(),
                       stride);
    std::vector<float> out(out_dim * stride);
    kernel(weights.data(), bias.data(), out_dim, in_dim, plane.data(), lanes,
           stride, false, out.data());
    return out[neuron * stride + lane];
  };

  const auto check_tier = [&](const char* tier, auto&& kernel) {
    xoshiro256 filler(1);
    const float reference = value_at(kernel, 0, 1, 4, filler);
    for (const std::size_t lanes :
         {std::size_t{3}, std::size_t{8}, std::size_t{17}, std::size_t{64}}) {
      for (std::size_t lane = 0; lane < lanes;
           lane += (lanes > 5 ? 5 : 1)) {
        ASSERT_EQ(value_at(kernel, lane, lanes, 4, filler), reference)
            << tier << " lanes=" << lanes << " lane=" << lane;
      }
    }
  };
  check_tier("scalar", [](auto... args) {
    kernels::scalar::fc_plane(args...);
  });
  if (kernels::avx2_available()) {
    check_tier("avx2", [](auto... args) {
      kernels::avx2::fc_plane(args...);
    });
  }
  if (kernels::avx512_available()) {
    check_tier("avx512", [](auto... args) {
      kernels::avx512::fc_plane(args...);
    });
  }
}

// The avx512 fc_plane runs the identical ascending per-lane FMA chain as
// avx2 (16-lane group pairs + an 8-lane remainder group), so the two wide
// tiers agree bitwise — the serve layer's packed/unpacked float equality
// rests on this even when dispatch upgrades across tiers.
TEST(NnKernels, FcPlaneAvx512MatchesAvx2Bitwise) {
  if (!kernels::avx512_available() || !kernels::avx2_available()) {
    GTEST_SKIP() << "host lacks an AVX-512 or AVX2 tier";
  }
  xoshiro256 rng(83);
  constexpr std::size_t stride = kernels::max_tile_lanes;
  const plane_case cases[] = {{1, 1, 1},  {3, 7, 5},    {16, 31, 8},
                              {5, 16, 33}, {16, 31, 64}, {1, 201, 17}};
  for (const plane_case& c : cases) {
    for (const bool relu : {false, true}) {
      const auto weights = random_values(rng, c.out_dim * c.in_dim);
      const auto bias = random_values(rng, c.out_dim);
      const auto rows = random_values(rng, c.lanes * c.in_dim, 2.0);
      std::vector<float> plane(c.in_dim * stride, -7.0f);
      kernels::pack_rows(rows.data(), c.lanes, c.in_dim, c.in_dim,
                         plane.data(), stride);
      std::vector<float> wide(c.out_dim * stride, 0.0f);
      std::vector<float> wider(c.out_dim * stride, 0.0f);
      kernels::avx2::fc_plane(weights.data(), bias.data(), c.out_dim, c.in_dim,
                              plane.data(), c.lanes, stride, relu,
                              wide.data());
      kernels::avx512::fc_plane(weights.data(), bias.data(), c.out_dim,
                                c.in_dim, plane.data(), c.lanes, stride, relu,
                                wider.data());
      for (std::size_t o = 0; o < c.out_dim; ++o) {
        for (std::size_t s = 0; s < c.lanes; ++s) {
          ASSERT_EQ(wider[o * stride + s], wide[o * stride + s])
              << "out=" << c.out_dim << " in=" << c.in_dim
              << " lanes=" << c.lanes << " relu=" << relu << " o=" << o
              << " s=" << s;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// packing round trip
// ---------------------------------------------------------------------------

TEST(NnKernels, PackRowsRoundTripsThroughUnpackPlane) {
  xoshiro256 rng(3);
  constexpr std::size_t stride = kernels::max_tile_lanes;
  for (const std::size_t count :
       {std::size_t{1}, std::size_t{7}, std::size_t{8}, std::size_t{63},
        std::size_t{64}}) {
    const std::size_t width = 13;
    const auto rows = random_values(rng, count * width);
    std::vector<float> plane(width * stride, -1.0f);
    kernels::pack_rows(rows.data(), count, width, width, plane.data(), stride);
    // Pads zero-filled.
    for (std::size_t i = 0; i < width; ++i) {
      for (std::size_t r = count; r < kernels::padded_lanes(count); ++r) {
        ASSERT_EQ(plane[i * stride + r], 0.0f);
      }
    }
    std::vector<float> back(count * width, 0.0f);
    kernels::unpack_plane(plane.data(), width, stride, count, back.data(),
                          width, /*accumulate=*/false);
    ASSERT_EQ(back, rows) << "count=" << count;
    // Accumulate doubles the values.
    kernels::unpack_plane(plane.data(), width, stride, count, back.data(),
                          width, /*accumulate=*/true);
    for (std::size_t i = 0; i < back.size(); ++i) {
      ASSERT_EQ(back[i], rows[i] + rows[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// gemm drivers vs the la::gemv scalar reference, random ragged shapes, pool
// ---------------------------------------------------------------------------

TEST(NnKernels, GemmNtMatchesScalarReferenceOnRaggedShapes) {
  xoshiro256 rng(42);
  const struct {
    std::size_t m, n, k;
  } shapes[] = {{1, 1, 1},   {2, 4, 8},    {5, 7, 13},   {9, 16, 31},
                {64, 8, 31}, {65, 16, 31}, {130, 5, 201}, {257, 3, 17}};
  for (const auto& s : shapes) {
    la::matrix_f a(s.m, s.k);
    la::matrix_f b(s.n, s.k);
    for (auto& v : a.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto& v : b.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    std::vector<float> bias(s.n);
    for (auto& v : bias) v = static_cast<float>(rng.uniform(-0.5, 0.5));

    la::matrix_f reference(s.m, s.n);
    for (std::size_t i = 0; i < s.m; ++i) {
      la::gemv(b, a.row(i), reference.row(i), bias);  // row i of A·Bᵀ + bias
    }
    la::matrix_f c(s.m, s.n);
    kernels::gemm_nt(a, b, c, bias);
    const float tol =
        reduction_tolerance(static_cast<double>(s.k) + 1.0);
    for (std::size_t i = 0; i < s.m; ++i) {
      for (std::size_t j = 0; j < s.n; ++j) {
        ASSERT_NEAR(c(i, j), reference(i, j), tol)
            << s.m << "x" << s.n << "x" << s.k << " at (" << i << "," << j
            << ")";
      }
    }

    // Fused ReLU matches a reference-then-clamp within the same tolerance.
    la::matrix_f relu_out(s.m, s.n);
    kernels::gemm_nt_bias_act(a, b, relu_out, bias, nn::activation::relu);
    for (std::size_t i = 0; i < s.m; ++i) {
      for (std::size_t j = 0; j < s.n; ++j) {
        const float clamped =
            reference(i, j) < 0.0f ? 0.0f : reference(i, j);
        ASSERT_NEAR(relu_out(i, j), clamped, tol);
      }
    }

    // Accumulate adds on top of existing contents.
    la::matrix_f acc(s.m, s.n, 1.5f);
    kernels::gemm_nt(a, b, acc, bias, /*accumulate=*/true);
    for (std::size_t i = 0; i < s.m; ++i) {
      for (std::size_t j = 0; j < s.n; ++j) {
        ASSERT_NEAR(acc(i, j), 1.5f + c(i, j), 1e-6f);
      }
    }
  }
}

TEST(NnKernels, GemmNtStableUnderThreadPoolAndNesting) {
  xoshiro256 rng(17);
  la::matrix_f a(320, 31);
  la::matrix_f b(16, 31);
  for (auto& v : a.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& v : b.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  la::matrix_f first(320, 16);
  kernels::gemm_nt(a, b, first);  // parallel tile path (5 tiles)
  // Repeat from inside pool workers: nested dispatch must not change values
  // (tiles are lane-invariant, chunking is tile-aligned).
  for (int round = 0; round < 3; ++round) {
    la::matrix_f again(320, 16);
    parallel_for_chunked(0, 1, [&](std::size_t, std::size_t) {
      kernels::gemm_nt(a, b, again);
    });
    ASSERT_EQ(again.flat().size(), first.flat().size());
    for (std::size_t i = 0; i < first.flat().size(); ++i) {
      ASSERT_EQ(again.flat()[i], first.flat()[i]) << "round " << round;
    }
  }
}

}  // namespace
